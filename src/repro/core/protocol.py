"""The ``p_*`` protocol, declared once.

Figure 2's "special library" is the whole client surface of the
system, and every deployment — the server's dispatcher, a read-only
replica, the remote client, the sharded client, a scheduler session —
is a different way of carrying the *same* verbs.  This module is the
one place that says what those verbs are.  A row of :data:`VERBS`
gives, per verb:

``kind``
    :data:`TX` (transaction control), :data:`READ` (never changes
    committed state) or :data:`WRITE` (may).  The 2PC half-calls force
    durable status records and ``p_query`` can run POSTQUEL mutations,
    so all three are writes.  Read by the replica's read-only guard.
``paths``
    positions (``self`` not counted) of the arguments that are paths —
    ``p_concat``'s first is a *list* of paths.  The sharded client
    routes every one of them: a verb whose paths land on one shard is
    one request there, one whose paths span shards its cross-shard
    composite.
``fd``
    :data:`OPENS` when the verb returns a new descriptor, :data:`USES`
    or :data:`CLOSES` when its first argument is one; ``None`` when it
    is addressed by neither.  Read by the sharded client (descriptor
    translation) and the server (a name grant rides on every reply that
    opens a descriptor).
``drops_buffers``
    the verb may change what *any* position of any file holds, so a
    client's read-ahead buffers die with it.  Read by the remote
    client.
``reach``
    how far out the verb is exposed: :data:`SERVER` (only a 2PC
    coordinator sends it), :data:`REMOTE` (clients of one server) or
    :data:`SHARDED` (every client, the sharded one included).

Parameter names and defaults are **not** restated here: they are read
once, at import, from :class:`~repro.core.library.InversionClient` —
the one place a signature stays written.  To add a verb, write the
library method and add one row; :func:`exposes` then gives it to every
client class that has no cross-stack logic of its own for it.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field

from repro.core.library import InversionClient

TX, READ, WRITE = "tx", "read", "write"
OPENS, USES, CLOSES = "opens", "uses", "closes"
SERVER, REMOTE, SHARDED = 0, 1, 2


def _define(name: str, params: tuple, receiver: str, result: str,
            env: dict):
    """``def <name>(<receiver,> <params, with their defaults>): return
    <result>`` as a real function; ``{args}`` in ``result`` is the
    tuple of every parameter, in order."""
    decl = [receiver] if receiver else []
    for p in params:
        if p.default is p.empty:
            decl.append(p.name)
        else:
            env["_default_" + p.name] = p.default
            decl.append(f"{p.name}=_default_{p.name}")
    args = "(" + "".join(p.name + ", " for p in params) + ")"
    exec(f"def {name}({', '.join(decl)}):\n"
         f"    return {result.format(args=args)}\n", env)
    return env[name]


@dataclass(frozen=True)
class Verb:
    name: str
    kind: str
    paths: tuple = ()
    fd: str | None = None
    drops_buffers: bool = False
    reach: int = SHARDED
    #: the library method's parameters, ``self`` dropped.
    params: tuple = field(init=False, repr=False, compare=False)
    #: ``bind(*args, **kwargs)`` -> every parameter's value in order,
    #: defaults applied; raises :class:`TypeError` on a bad call, named
    #: after the verb, exactly as calling the library method would.
    bind: object = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        signature = inspect.signature(getattr(InversionClient, self.name))
        params = tuple(signature.parameters.values())[1:]
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "bind",
                           _define(self.name, params, "", "{args}",
                                   {"__name__": __name__}))


VERBS: dict[str, Verb] = {verb.name: verb for verb in (
    Verb("p_begin", TX, drops_buffers=True),
    Verb("p_commit", TX, drops_buffers=True),
    Verb("p_abort", TX, drops_buffers=True),
    Verb("p_prepare", WRITE, reach=SERVER),
    Verb("p_resolve", WRITE, reach=SERVER),
    Verb("p_creat", WRITE, paths=(0,), fd=OPENS),
    Verb("p_open", READ, paths=(0,), fd=OPENS),
    Verb("p_close", READ, fd=CLOSES),
    Verb("p_read", READ, fd=USES),
    Verb("p_write", WRITE, fd=USES),
    Verb("p_lseek", READ, fd=USES),
    Verb("p_pread", READ, paths=(0,)),
    Verb("p_pwrite", WRITE, paths=(0,), drops_buffers=True),
    Verb("p_mkdir", WRITE, paths=(0,)),
    Verb("p_unlink", WRITE, paths=(0,), drops_buffers=True),
    Verb("p_rmdir", WRITE, paths=(0,)),
    Verb("p_rename", WRITE, paths=(0, 1), drops_buffers=True),
    Verb("p_stat", READ, paths=(0,)),
    Verb("p_readdir", READ, paths=(0,)),
    Verb("p_reflink", WRITE, paths=(0, 1), drops_buffers=True),
    Verb("p_concat", WRITE, paths=(0, 1), drops_buffers=True),
    Verb("p_slice", WRITE, paths=(0, 3), drops_buffers=True),
    Verb("p_truncate", WRITE, paths=(0,), drops_buffers=True),
    Verb("p_query", WRITE, reach=REMOTE, drops_buffers=True),
)}


def exposes(reach: int):
    """Class decorator: complete a client class to the protocol.  Every
    verb that reaches ``reach`` and that the class does not write by
    hand becomes a method with the library's parameter names and
    defaults whose body is ``return self._forward(verb, args)`` —
    ``args`` being every parameter's value, defaults applied.  The
    methods are ordinary functions in the class ``__dict__``."""
    def complete(cls):
        for verb in VERBS.values():
            if verb.reach >= reach and verb.name not in vars(cls):
                method = _define(verb.name, verb.params, "self",
                                 "self._forward(_verb, {args})",
                                 {"_verb": verb,
                                  "__name__": cls.__module__})
                method.__qualname__ = f"{cls.__qualname__}.{verb.name}"
                setattr(cls, verb.name, method)
        return cls
    return complete
