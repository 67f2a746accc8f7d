"""Legacy setup shim: lets ``pip install -e .`` work without the ``wheel``
package (offline environment).  All metadata lives in pyproject.toml."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.7.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
    extras_require={
        "test": ["pytest", "pytest-benchmark", "hypothesis", "scipy>=1.10"],
    },
)
