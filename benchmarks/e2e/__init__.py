"""The standing end-to-end benchmark (see README.md; run ``run.py``)."""
