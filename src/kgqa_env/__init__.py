"""Knowledge-graph QA agent environment: tag-structured tool rollouts over a
triple store with web fallback, multi-signal reward scoring, group-relative
advantages, incomplete-KG benchmarking, and SFT trajectory filtering."""

__version__ = "0.1.0"
