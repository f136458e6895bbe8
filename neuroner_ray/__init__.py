"""neuroner_ray — a Ray-Data-native knowledge-graph construction engine.

From-scratch reimplementation of the data-processing capabilities of
chieni/NeuroNER (a fork of Franck-Dernoncourt/NeuroNER, EMNLP 2017 demo),
re-expressed Ray-Data-first per SURVEY.md: every stage is a batch transform
over ``ray.data.Dataset`` Arrow blocks; the sequence tagger is built per
batch in a task stage; wide steps use groupby/aggregate with explicit
partitioning and skew handling.

Nothing in this package calls ``ray.init()`` / ``ray.shutdown()`` — the
driver, ``bench.py``, CLI entry points and the test fixture own the session.
"""

__version__ = "0.1.0"
