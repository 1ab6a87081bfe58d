"""Self-describing generative few-shot named entity recognition, desk scale.

Two seq2seq tasks share one model: mention describing (MD) maps mentions to
describing concepts; entity generation (EG) emits "mention is type" clauses
for a prompted, concept-described type set. Generated text is parsed and
grounded back to character offsets by an i-th-occurrence rule, then scored
with strict micro-F1.
"""

__version__ = "0.1.0"
