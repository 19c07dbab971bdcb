"""Multi-tenant noisy retrieval simulator, coalition leakage accounting,
and a verifiable audit protocol."""

__version__ = "0.1.0"
