"""Setup script.

The execution environment has setuptools but no ``wheel`` package and no
network, so PEP 660 editable installs (``pip install -e .``) cannot build an
editable wheel.  This script lets the legacy ``python setup.py develop`` path
(used automatically by older pip, or directly) provide the editable install.
It holds all the metadata there is: the repository has no ``pyproject.toml``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
)
