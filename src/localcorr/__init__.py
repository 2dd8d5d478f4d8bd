"""Local correlation pricing toolkit.

Market snapshot ingestion, Dupire local volatility, Gaussian-copula
basket decoding, a one-parameter local correlation family and a Monte
Carlo engine that reprices the index option market by construction.

Every public name is imported from the module that defines it, e.g.
``from localcorr.lcm.engine import price_european``; the packages
re-export nothing.
"""

__version__ = "0.1.0"
