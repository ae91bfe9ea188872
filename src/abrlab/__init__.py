"""Trace-driven laboratory for risk-calibrated adaptive bitrate control.

Layers, bottom up: throughput traces (`traces`), a chunk-level streaming
simulator (`sim`), classic and clairvoyant control policies (`policies`), a
small numpy policy network (`net`), expert cloning (`imitation`),
tail-risk-shaped policy-gradient fine-tuning (`risk_ppo`), calibrated
safe-capacity forecasting (`capacity`), a runtime action auditor
(`auditor`), fleet risk metrics (`metrics`), and a pipeline CLI (`cli`).
Each public name has one home, its submodule; the package re-exports nothing.
"""

__version__ = "0.1.0"
