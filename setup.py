"""Legacy setup shim.

The canonical build configuration lives in ``pyproject.toml``; this file
exists so the package can be installed in environments without the ``wheel``
package (offline editable installs fall back to ``setup.py develop``).

NumPy is a real runtime dependency since the ``numpy`` block-simulation
backend (``repro.automata.block``): the pinned range spans the releases
whose ``packbits``/``unpackbits`` ``bitorder`` semantics and fancy-indexing
behaviour the engine relies on, capped below the next major to guard
against API breaks.  The library does not import without NumPy: the DFA
transfer-matrix counter (``repro.automata.dfa``) needs it too.
"""

from setuptools import setup

setup(
    install_requires=[
        "numpy>=1.22,<3",
    ],
)
