"""Package metadata for the Laminar reproduction.

Kept as ``setup.py`` (rather than pyproject.toml) so editable installs work
without the ``wheel``/``build`` packages in minimal environments:
``pip install -e . --no-build-isolation``.
"""

import os
import re

from setuptools import find_packages, setup


def _version() -> str:
    """``repro.__version__``, read from source so setup needs no numpy."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "src", "repro", "__init__.py")
    with open(path, encoding="utf-8") as handle:
        return re.search(r'^__version__ = "([^"]+)"$', handle.read(), re.M).group(1)


setup(
    name="laminar-repro",
    version=_version(),
    description=(
        "Reproduction of 'Laminar: A Scalable Asynchronous RL Post-Training "
        "Framework' — simulator, baselines, experiment drivers and the "
        "repro-bench scenario matrix runner (serial or a local process pool)."
    ),
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=["numpy>=1.21"],
    extras_require={"test": ["pytest", "pytest-benchmark"]},
    entry_points={
        "console_scripts": [
            "repro-bench = repro.bench.cli:main",
        ],
    },
)
