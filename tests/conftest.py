from hypothesis import settings

# Every Hypothesis test draws the same examples on every run, so a
# failure reproduces, and a slow example is not a failure.
settings.register_profile("homocon", deadline=None, derandomize=True)
settings.load_profile("homocon")
