"""Grammatical-gender signal identification, disentanglement, and
measurement for word embeddings."""

__version__ = "0.1.0"

from .association import (AssociationResult, PermutationConfig, PValueMethod,
                          permutation_p, sc_weat, weat)
from .classifier import LinearModel, TrainConfig, accuracy, decision_direction, train
from .disentangler import (DisentangleConfig, HyperplaneStack, apply_stack, load_stack,
                           run, save_stack)
from .embeddings import EmbeddingTable, cosine, load_table, save_table
from .errors import (DataError, FormatError, MissingWordsError, NumericError,
                     PipelineError, UndersizedSetError, ZeroVectorError)
from .evaluations import (GapReduction, GgWeatSpec, SweepRecord, SweepResult,
                          analogy_accuracy, build_gg_targets, gg_weat, pairwise_gap,
                          principal_coordinates, sc_gg_sweep, valnorm)
from .lexicon import (AnalogyQuestion, GenderLexicon, SimilarityPair, StimulusSet,
                      ValenceNorm, balanced_sample, load_analogies,
                      load_gender_lexicon, load_similarity_pairs, load_stimuli,
                      load_valence_norms)
from .synthetic import SynthConfig, generate

__all__ = [name for name in dir() if not name.startswith("_")]
