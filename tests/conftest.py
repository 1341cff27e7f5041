from hypothesis import settings

# Opt-in soak of the drawn kernel-against-numpy test:
#     python -m pytest tests/test_kernel.py --hypothesis-profile=kernel-soak
settings.register_profile("kernel-soak", max_examples=5000)
