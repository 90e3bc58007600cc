"""The world bounds and the decision errors, in a module that imports nothing.

sweep re-exports MAX_N and decide the rest, so each is stated once here and
the command line can print its --max-n range and catch a decision's errors
without loading the layers behind them.
"""

# Frame sweeps cover 1 to MAX_N worlds.  Beyond this the seen table of
# sweep.frame_orbits alone takes 2^(n*n) bytes (64 GiB at six worlds).
MAX_N = 5

# The world bound of a bounded search when the caller gives none.
DEFAULT_BOUND = 3


class DecideError(Exception):
    """The tableau's expansion budget is exhausted."""


class SelfCheckError(Exception):
    """Internal fault: a witness is outside its class or failed replay."""
