"""Host wall-clock benchmark of the HIX simulator (see ``run.py``)."""
