"""Package metadata for the ``src/`` layout.

This file *is* the canonical metadata (there is no ``pyproject.toml``), so
``pip install -e .`` installs ``repro`` and its ``repro`` console script.
The documented way to run from a checkout stays ``PYTHONPATH=src`` (see
README.md): nothing needs installing.  The CI composite action keys its pip
cache on this file.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",  # keep in step with repro.__version__
    description=(
        "High-order line graphs of non-uniform hypergraphs: s-line-graph "
        "algorithms, s-metrics, and an overlap-index serving stack"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy", "scipy"],
    extras_require={"graphs": ["networkx"]},
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
