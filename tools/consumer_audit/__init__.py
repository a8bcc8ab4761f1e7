"""consumer_audit — list the ``src/repro`` code no entry point reaches.

Run it as ``python -m tools.consumer_audit`` (no flags).  See
:mod:`tools.consumer_audit.audit` for the consumers it runs and
``keep.json`` for the uncalled functions that stay, each under a keep rule.
"""
