"""repro — reproduction of "Data Augmentation for Multivariate Time Series
Classification: An Experimental Study" (ICDE 2024).

Subpackages
-----------
``repro.data``
    Dataset container, synthetic UEA archive (Table III), characteristics.
``repro.augmentation``
    The full Figure-1 taxonomy of augmentation techniques, plus the paper's
    balance-augmentation protocol.
``repro.classifiers``
    ROCKET + ridge, InceptionTime, MiniRocket and nearest-neighbour baselines.
``repro.nn``
    The from-scratch numpy deep-learning substrate.
``repro.experiments``
    Protocol, grid runner and renderers for every table and figure.
``repro.serving``
    Versioned model registry, micro-batching inference, HTTP prediction API.
``repro.taxonomy``
    The Figure-1 tree linked to implementations.

Quickstart
----------
>>> from repro.data import load_dataset
>>> from repro.augmentation import make_augmenter, augment_to_balance
>>> from repro.classifiers import RocketClassifier
>>> train, test = load_dataset("Epilepsy")
>>> augmented = augment_to_balance(train, make_augmenter("smote"), rng=0)
>>> ready = augmented.znormalize().impute()
>>> accuracy = RocketClassifier(num_kernels=500, seed=0).fit(ready.X, ready.y).score(
...     test.znormalize().impute().X, test.y)
"""

__version__ = "1.1.0"

__all__ = ["augmentation", "classifiers", "data", "experiments", "nn", "serving",
           "taxonomy", "__version__"]

#: subpackages load on first attribute access (PEP 562), so ``import
#: repro`` costs nothing and a server imports only what it serves
_SUBPACKAGES = frozenset(__all__) - {"__version__"}


def __getattr__(name: str):
    if name in _SUBPACKAGES:
        import importlib  # not at module level: dir(repro) stays clean

        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SUBPACKAGES)
