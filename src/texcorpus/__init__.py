"""Toolkit for analyzing corpora of LaTeX paper sources.

Pipeline: harvest sources from an arXiv-compatible API, tokenize them,
extract comments (syntactically and against a formal compilation-oracle
model), measure document structure, then aggregate into corpus statistics,
discriminative vocabularies, trends and a subject classifier.

Each name is imported from the module that defines it (see the module
map in the README), so importing the package loads no submodule.
"""

__version__ = "0.1.0"
