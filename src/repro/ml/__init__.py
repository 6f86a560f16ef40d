"""Machine-learning models for self-tuning prediction (§6.3).

From-scratch NumPy implementations of the paper's three Weka model
families plus the lookup table:

* :class:`~repro.ml.linreg.LinearRegression` — ordinary least squares
  (optionally ridge-regularised);
* :class:`~repro.ml.reptree.REPTree` — a variance-reduction regression
  tree with *reduced-error pruning* against a held-out validation set
  (Weka's REPTree);
* :class:`~repro.ml.mlp.MLPRegressor` — a multilayer perceptron
  trained with Adam;
* :class:`~repro.ml.lookup.LookupTable` — nearest-key memorisation of
  the best known configurations.

The three learned models share the :class:`~repro.ml.base.Regressor`
interface, so the self-tuning pipeline treats them interchangeably.
"""

from repro.ml.base import Regressor
from repro.ml.linreg import LinearRegression
from repro.ml.reptree import REPTree
from repro.ml.mlp import MLPRegressor
from repro.ml.lookup import LookupTable
from repro.ml.preprocessing import StandardScaler, train_val_split
from repro.ml.metrics import mean_ape, mse, mae, r2_score

__all__ = [
    "Regressor",
    "LinearRegression",
    "REPTree",
    "MLPRegressor",
    "LookupTable",
    "StandardScaler",
    "train_val_split",
    "mean_ape",
    "mse",
    "mae",
    "r2_score",
]
