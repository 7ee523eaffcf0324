import hypothesis

# "det" is every run's default; "deep" (pytest --hypothesis-profile=deep)
# runs each property on many more derandomized examples
hypothesis.settings.register_profile(
    "det", derandomize=True, deadline=None, max_examples=50)
hypothesis.settings.register_profile(
    "deep", derandomize=True, deadline=None, max_examples=2000)
hypothesis.settings.load_profile("det")
