"""Viewpoint-estimation benchmark kit.

Angle codecs for continuous and discretized azimuth, the detection and
pose training losses with analytic gradients, AP/AVP evaluation, a
seeded synthetic detection+viewpoint benchmark, and a small trainable
network tying them together, plus finite-difference verification and a
CLI for end-to-end runs.

The package binds no names of its own: each name is imported from the
module that defines it, e.g. ``from viewbench.angles import encode``.
"""
