"""Cross-framework meaning representation parsing toolkit.

A single encoder feeds biaffine edge scorers for five graph banks (DM,
PSD, EDS, UCCA, AMR).  Nodes that are not anchored to tokens are
generated by framework-specific decoders before edges are scored.  The
numeric substrate is a small numpy-based reverse-mode autodiff library
(``mrparse.autodiff``), so everything runs on one CPU core at desk
scale.

Subpackage map:

* ``graphs``    -- graph data model, MRP JSON-Lines and companion I/O
* ``autodiff``  -- tensors, backprop, Adam, gradient clipping, checkpoints
* ``atomic``    -- atomic file writes (temporary file plus rename)
* ``encoder``   -- vocabularies, feature extraction, biLSTM stack
* ``biaffine``  -- edge/label scoring, the edge loss and threshold decoding of every head
* ``sdp``       -- DM/PSD frame prediction and postprocessing
* ``eds``       -- DM-to-EDS conversion and anchor prediction
* ``ucca``      -- pointer-based constituent generation
* ``amr``       -- node generation, spanning arborescence, pre/post
* ``training``  -- splits, the one training loop, parsing, ensembling
* ``scoring``   -- MRP component F1, per framework and macro-averaged
* ``cli``       -- batch entry points
"""

__version__ = "0.1.0"
