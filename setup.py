"""Setuptools entry point.

Kept alongside ``pyproject.toml`` so the package can be installed in
environments without network access to build-time dependencies
(``pip install -e . --no-build-isolation --no-use-pep517``).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Cost-distance Steiner trees for timing-constrained global routing "
        "(reproduction of Held & Perner, DAC 2025)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # The compiled search loop's source, built on first import.
    package_data={"repro.core": ["_search.c"]},
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
    extras_require={"test": ["pytest", "pytest-benchmark", "hypothesis"]},
)
