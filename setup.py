from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Securing Programmable Analog ICs Against Piracy'"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    # The engine compiles its kernel from this source on first use.
    package_data={"repro.engine": ["_kernel.c"]},
    python_requires=">=3.11",
    install_requires=["numpy", "scipy"],
    extras_require={"test": ["pytest", "pytest-benchmark", "hypothesis"]},
)
