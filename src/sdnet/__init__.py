"""Self-describing generative few-shot named entity recognition, desk scale.

Two seq2seq tasks share one model: mention describing (MD) maps mentions to
describing concepts; entity generation (EG) emits "mention is type" clauses
for a prompted, concept-described type set. Generated text is parsed and
grounded back to character offsets by an i-th-occurrence rule, then scored
with strict micro-F1.
"""

__version__ = "0.1.0"

from .codec import (
    ParseResult,
    parse_generated,
    parse_prompt_eg,
    parse_prompt_md,
    serialize_prompt_eg,
    serialize_prompt_md,
    serialize_target,
)
from .data import (
    OTHER_TYPE,
    AnnotatedSentence,
    ConceptDescription,
    CorpusFormatError,
    PromptEG,
    PromptMD,
    Sentence,
    SurfaceAbsentError,
    TargetSequence,
    TypeDictionary,
    TypedMention,
    read_annotated_jsonl,
    validate_annotated_sentence,
    write_annotated_jsonl,
)
from .locate import SpanPrediction, locate
