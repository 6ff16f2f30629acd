"""Certified enclosures for lens and Lawson-cone competitor energies."""

__version__ = "0.1.0"

from .ball import Ball, TriBool

__all__ = ["Ball", "TriBool", "__version__"]
