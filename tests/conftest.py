from hypothesis import settings

# Deterministic property tests: the same examples on every run, no example
# database, and no per-example deadline (group sizes vary widely).
settings.register_profile("pgs", derandomize=True, deadline=None, database=None)
settings.load_profile("pgs")
