"""Settings shared by every test module."""

from hypothesis import settings

# an exact solve's time grows with the sizes of its numbers, which one draw
# can multiply, so no `@given` test has a per-example deadline; a test's own
# `@settings` give only what else it needs, such as `max_examples`
settings.register_profile("pacomp", deadline=None)
settings.load_profile("pacomp")
