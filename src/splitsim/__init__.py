"""splitsim: deterministic simulator of split / federated training
protocols with an order-bias experiment harness."""

__version__ = "0.2.0"
