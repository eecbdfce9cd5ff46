"""Funnel transformer toolkit.

A desk-scale reference implementation of the length-compressing
encoder/decoder transformer: three provably equivalent relative-attention
implementations, masked-token and replaced-token training scaffolds, an
analytical FLOPs/parameter model, and a small reverse-mode tensor engine
to run it all on.
"""

__version__ = "0.1.0"
