"""Funnel transformer toolkit.

A desk-scale reference implementation of the length-compressing
encoder/decoder transformer: three provably equivalent relative-attention
implementations, masked-token and replaced-token training scaffolds, an
analytical FLOPs/parameter model, and a small reverse-mode tensor engine
to run it all on.
"""

from .autodiff import (ContractError, NumericError, Rng, ShapeError, Tape, Tensor,
                       grad_check)
from .checkpoint import load, save
from .corpus import Batch, Vocab, build_vocab, decode, encode_line
from .costmodel import (CostReport, compare_report, cost_report, display_ratio,
                        effective_layers, flops_exact, flops_ratio, param_count)
from .decoder import DecoderOutput, decoder_forward, upsample
from .encoder import (EncoderState, PooledState, block_transition_attention,
                      encoder_forward, pool_pair, pool_step, pool_top_attn)
from .layout import BlockSpec, LayoutError, LayoutSpec, format_layout, parse_layout
from .model import (FunnelModel, ModelConfig, ParamSpec, build_params, generator_config,
                    param_specs, sequence_logits)
from .objectives import (ElectraBatch, MaskPlan, build_electra_batch, electra_step,
                         mlm_loss, sample_mask_single, sample_mask_span)
from .relattn import (LayerParams, RelPosEncoding, attention, pffn,
                      position_term_factorized, position_term_gather,
                      position_term_naive)
from .training import (AdamW, OptimizerConfig, TrainSettings, TrainingDiverged,
                       train_toy)

__version__ = "0.1.0"
