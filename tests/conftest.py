from hypothesis import Phase, settings

# The mutant gate's profile (`mutants.py`, through --hypothesis-profile):
# a gate needs a failure, not the minimal example that shrinking finds.
# Tier-1 keeps Hypothesis's default profile.
settings.register_profile("no-shrink", phases=[Phase.explicit, Phase.reuse, Phase.generate])
