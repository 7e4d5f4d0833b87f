"""coverdepth: exact verification toolkit for depth stabilization of
symbolic powers of vertex-cover ideals on small graphs.

Layers:

* :mod:`coverdepth.graphs` — simple graphs, matching invariants, enumeration;
* :mod:`coverdepth.ideals` — monomial ideals (intersection, powers, symbolic
  powers of cover ideals, polarization, Alexander duality);
* :mod:`coverdepth.layered` — the layered graph G_k and proof-matching
  certificates;
* :mod:`coverdepth.homology` — Betti tables via subset sweeps, the
  Taylor-complex oracle, and the two independent depth routes;
* :mod:`coverdepth.theorems` — executable verification of the depth/regularity
  statements over exhaustive small-graph corpora;
* :mod:`coverdepth.cli` — the `coverdepth` command-line front end.
"""

__version__ = "0.1.0"
