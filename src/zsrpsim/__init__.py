"""Zero secrecy rate probability of RIS- and UAV-aided multiuser downlinks.

Monte-Carlo and closed-form evaluation of the probability that a randomly
located aerial eavesdropper denies any positive secrecy rate, for
fully-connected and single-connected RIS architectures under round-robin
and proportional-fair scheduling, plus the hovering-altitude optimization
of the aerial BS.
"""

__version__ = "0.1.0"
