"""Shared pytest configuration.

Hypothesis replays failing examples from its ``.hypothesis/`` database, so
two runs of the same command can draw different inputs.  The
``reproducible`` profile draws a fixed sequence and keeps no database; select
it for before/after comparisons that must see the same inputs::

    python -m pytest --hypothesis-profile=reproducible

Without the option hypothesis's default profile applies.
"""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
