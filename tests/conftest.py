"""Hypothesis profiles for the test suite.

`mutation` runs every phase but the shrink, and keeps no example database.
`tests/mutation_guard.py` selects it with `--hypothesis-profile mutation`:
the guard asks only whether a test fails on a mutant, not for its smallest
failing example, and shrinking is most of the time a caught mutant costs.
A plain pytest run keeps the default profile.
"""

from hypothesis import Phase, settings

settings.register_profile(
    "mutation",
    database=None,
    phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target],
)
