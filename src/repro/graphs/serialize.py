"""ProgramGraph ⇄ flat array dict (de)serialization.

Graphs are what every downstream consumer (tokenizer, GNN, index)
actually reads, so the artifact store persists them directly instead of
re-deriving them from IR on every load.  The encoding is a flat
``{name: ndarray}`` mapping — the same shape ``np.savez`` and the store's
``.npz`` entries use — with string features carried in one JSON payload
array.  Round-trips are exact: the restored graph has an identical
:func:`repro.index.graph_fingerprint`.
"""

from __future__ import annotations

import json
from typing import Dict, Mapping

import numpy as np

from repro.graphs.programl import ProgramGraph

_META = "meta"


def graph_to_arrays(graph: ProgramGraph, prefix: str = "") -> Dict[str, np.ndarray]:
    """Encode a graph as three ``{prefix+key: ndarray}`` entries.

    ``meta`` (a JSON payload: names, node feature strings, relation edge
    counts), ``node_types``, and one packed ``edges`` matrix of shape
    ``(3, total_edges)`` — rows source, dest, position — concatenated in
    relation order.  Packing everything into three arrays keeps archive
    open/read overhead flat no matter how many relations exist; warm
    corpus loads are the consumer that cares.
    """
    rels = sorted(graph.edges)
    meta = {
        # v2: analysis-derived relations (dataflow/callsummary) and the
        # summary node type may appear; the decoder is schema-agnostic
        # either way, so v1 archives still load.
        "version": 2,
        "name": graph.name,
        "source_language": graph.source_language,
        "node_texts": graph.node_texts,
        "node_full_texts": graph.node_full_texts,
        "relations": [[rel, int(graph.edges[rel].shape[1])] for rel in rels],
    }
    blocks = []
    for rel in rels:
        edges = np.ascontiguousarray(graph.edges[rel], dtype=np.int64)
        pos = graph.positions.get(rel)
        if pos is None:
            pos = np.zeros(edges.shape[1], dtype=np.int64)
        blocks.append(np.vstack([edges, np.asarray(pos, dtype=np.int64).reshape(1, -1)]))
    packed = (
        np.concatenate(blocks, axis=1) if blocks else np.zeros((3, 0), dtype=np.int64)
    )
    return {
        prefix + _META: np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8),
        prefix + "node_types": np.asarray(graph.node_types, dtype=np.int64),
        prefix + "edges": packed,
    }


def graph_from_arrays(arrays: Mapping[str, np.ndarray], prefix: str = "") -> ProgramGraph:
    """Rebuild a graph encoded by :func:`graph_to_arrays`.

    ``arrays`` may be a plain dict or an open ``np.load`` archive; only keys
    under ``prefix`` are read, so several graphs can share one archive.
    """
    key = prefix + _META
    if key not in arrays:
        raise ValueError(f"no serialized graph under prefix {prefix!r}")
    meta = json.loads(bytes(np.asarray(arrays[key], dtype=np.uint8).tobytes()).decode("utf-8"))
    graph = ProgramGraph(
        meta["name"],
        node_texts=list(meta["node_texts"]),
        node_full_texts=list(meta["node_full_texts"]),
        node_types=np.asarray(arrays[prefix + "node_types"]).tolist(),
        source_language=meta["source_language"],
    )
    packed = np.asarray(arrays[prefix + "edges"], dtype=np.int64).reshape(3, -1)
    offset = 0
    for rel, count in meta["relations"]:
        block = packed[:, offset : offset + count]
        offset += count
        graph.edges[rel] = block[:2]
        graph.positions[rel] = block[2]
    return graph

