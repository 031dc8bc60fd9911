"""Named dataset surrogates matching the shapes of the paper's inputs.

Every dataset used in the paper's evaluation (Table IV) and applications
(Section V) has a laptop-scale synthetic surrogate here.  The surrogates are
**not** the original data — they are generated hypergraphs whose structural
properties relevant to the paper's conclusions are matched:

* vertex/hyperedge count ratios and skewed degree distributions (Table IV);
* planted high-overlap hyperedge cores so the s = 8 (and higher) line graphs
  are non-trivial, as in the real data;
* application-specific planted structure (top-ranked diseases, prolific
  author collectives, hub genes, actor-collaboration stars) so the
  qualitative findings of Sections III-I and V are reproducible.

All generators are deterministic given a ``seed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.generators.community import add_overlap_core, planted_community_hypergraph
from repro.generators.random import power_law_weights, zipf_edge_sizes, chung_lu_hypergraph
from repro.hypergraph.builders import hypergraph_from_edge_dict
from repro.hypergraph.hypergraph import Hypergraph
from repro.utils.rng import SeedLike, make_rng
from repro.utils.validation import ValidationError


@dataclass(frozen=True)
class DatasetSpec:
    """Shape parameters of a Table IV surrogate (laptop scale)."""

    name: str
    num_vertices: int
    num_edges: int
    mean_edge_size: float
    max_edge_size: int
    num_communities: int
    within_probability: float = 0.9
    #: (number of core hyperedges, shared-core size) pairs appended to the
    #: community hypergraph to guarantee high-s overlap structure.
    cores: tuple = ((12, 12),)
    #: Category label from the paper's Table IV (Social / Web / Cyber / Email).
    category: str = "Social"
    #: The |V|, |E| the paper reports for the real dataset (for documentation).
    paper_num_vertices: int = 0
    paper_num_edges: int = 0


#: Laptop-scale surrogates of the eight Table IV datasets.  The paper-scale
#: sizes are kept in the spec for documentation; the generated hypergraphs
#: are roughly three orders of magnitude smaller with matching |V|/|E|
#: ratios and skew.
DATASET_SPECS: Dict[str, DatasetSpec] = {
    "com-orkut": DatasetSpec(
        name="com-orkut", num_vertices=2300, num_edges=4600,
        mean_edge_size=7.0, max_edge_size=90, num_communities=60,
        cores=((14, 12),), category="Social",
        paper_num_vertices=2_300_000, paper_num_edges=15_300_000,
    ),
    "friendster": DatasetSpec(
        name="friendster", num_vertices=4000, num_edges=800,
        mean_edge_size=14.0, max_edge_size=90, num_communities=40,
        cores=((20, 64), (10, 16)), category="Social",
        paper_num_vertices=7_900_000, paper_num_edges=1_600_000,
    ),
    "livejournal": DatasetSpec(
        name="livejournal", num_vertices=3200, num_edges=4000,
        mean_edge_size=9.0, max_edge_size=300, num_communities=50,
        cores=((16, 12),), category="Social",
        paper_num_vertices=3_200_000, paper_num_edges=7_500_000,
    ),
    "web": DatasetSpec(
        name="web", num_vertices=5500, num_edges=2600,
        mean_edge_size=11.0, max_edge_size=400, num_communities=20,
        within_probability=0.95, cores=((24, 16),), category="Web",
        paper_num_vertices=27_700_000, paper_num_edges=12_800_000,
    ),
    "amazon-reviews": DatasetSpec(
        name="amazon-reviews", num_vertices=2300, num_edges=2100,
        mean_edge_size=8.0, max_edge_size=60, num_communities=80,
        cores=((10, 12),), category="Web",
        paper_num_vertices=2_300_000, paper_num_edges=4_300_000,
    ),
    "stackoverflow-answers": DatasetSpec(
        name="stackoverflow-answers", num_vertices=1100, num_edges=3000,
        mean_edge_size=5.0, max_edge_size=40, num_communities=90,
        cores=((10, 10),), category="Web",
        paper_num_vertices=1_100_000, paper_num_edges=15_200_000,
    ),
    "activedns": DatasetSpec(
        name="activedns", num_vertices=4500, num_edges=4300,
        mean_edge_size=3.0, max_edge_size=30, num_communities=120,
        within_probability=0.95, cores=((12, 10),), category="Cyber",
        paper_num_vertices=4_500_000, paper_num_edges=43_900_000,
    ),
    "email-euall": DatasetSpec(
        name="email-euall", num_vertices=1300, num_edges=1300,
        mean_edge_size=3.0, max_edge_size=40, num_communities=40,
        cores=((10, 10),), category="Email",
        paper_num_vertices=265_200, paper_num_edges=265_200,
    ),
}


def available_datasets() -> List[str]:
    """Names of the Table IV surrogate datasets."""
    return sorted(DATASET_SPECS)


def load_dataset(name: str, scale: float = 1.0, seed: SeedLike = 0) -> Hypergraph:
    """Generate the surrogate for one of the Table IV datasets.

    Parameters
    ----------
    name:
        One of :func:`available_datasets` (case insensitive).
    scale:
        Multiplier applied to the surrogate's vertex and hyperedge counts
        (e.g. ``0.25`` for quick tests, ``2.0`` for heavier benchmark runs);
        planted cores are never scaled below viability.
    seed:
        RNG seed for reproducibility.
    """
    key = name.strip().lower()
    if key not in DATASET_SPECS:
        raise ValidationError(
            f"unknown dataset {name!r}; available: {available_datasets()}"
        )
    if scale <= 0:
        raise ValidationError("scale must be positive")
    spec = DATASET_SPECS[key]
    rng = make_rng(seed)
    num_vertices = max(int(spec.num_vertices * scale), 50)
    num_edges = max(int(spec.num_edges * scale), 50)
    h = planted_community_hypergraph(
        num_vertices=num_vertices,
        num_edges=num_edges,
        num_communities=max(int(spec.num_communities * scale), 4),
        mean_edge_size=spec.mean_edge_size,
        max_edge_size=min(spec.max_edge_size, num_vertices),
        within_probability=spec.within_probability,
        seed=rng,
    )
    for num_core_edges, core_size in spec.cores:
        h = add_overlap_core(
            h,
            num_core_edges=max(int(num_core_edges * min(scale, 1.0)), 4),
            core_size=min(core_size, num_vertices),
            extra_members=3,
            seed=rng,
        )
    return h


# --------------------------------------------------------------------------- #
# Application surrogates (Section V and Section III-I of the paper)
# --------------------------------------------------------------------------- #

#: Top-5 diseases of the paper's Table II, in the paper's rank order.
TOP_DISEASES = [
    "Malignant neoplasm of breast",
    "Breast carcinoma",
    "Malignant neoplasm of prostate",
    "Liver carcinoma",
    "Colorectal cancer",
]

#: The six genes the paper identifies as most important in the virology data.
IMPORTANT_GENES = ["IFIT1", "USP18", "ISG15", "IL6", "ATF3", "RSAD2"]

#: Actor collaboration groups the paper's IMDB case study uncovers at s=100.
IMDB_GROUPS = [
    ["Adoor Bhasi", "Bahadur", "Paravoor Bharathan", "Jayabharati", "Prem Nazir"],
    ["Matsunosuke Onoe", "Suminojo"],
    ["Kijaku Otani", "Kitsuraku Arashi"],
    ["Panchito", "Dolphy"],
]


def disgenet_surrogate(
    num_diseases: int = 220,
    num_genes: int = 1400,
    num_core_genes: int = 160,
    core_rank_size: int = 8,
    seed: SeedLike = 0,
) -> Hypergraph:
    """Disease–gene surrogate for the paper's Table II / Figure 4 experiments.

    Hyperedges are *genes* (each a set of associated diseases); vertices are
    *diseases*, labelled with readable names; the first five vertex labels
    are the paper's top-5 diseases.  A planted core of ``num_core_genes``
    genes is associated with the ``core_rank_size`` highest-weight diseases,
    so that (a) those diseases dominate PageRank in the clique expansion and
    (b) they still share >= 100 genes pairwise, keeping them top-ranked in
    the s = 10 and s = 100 s-clique graphs.
    """
    rng = make_rng(seed)
    disease_names = list(TOP_DISEASES) + [
        f"Disease-{i:03d}" for i in range(len(TOP_DISEASES), num_diseases)
    ]
    # Disease attachment weights: strictly decreasing for the top diseases so
    # the surrogate's ranking is deterministic, heavy-tailed for the rest.
    weights = power_law_weights(num_diseases, exponent=2.2, min_weight=1.0, rng=rng)
    weights = np.sort(weights)[::-1]
    boost = np.linspace(2.0, 1.2, num=len(TOP_DISEASES))
    weights[: len(TOP_DISEASES)] *= boost
    probabilities = weights / weights.sum()

    edge_dict: Dict[str, List[str]] = {}
    core_diseases = list(range(min(core_rank_size, num_diseases)))
    for g in range(num_core_genes):
        # Core genes: all (or nearly all) of the core diseases plus noise.
        members = set(core_diseases)
        for _ in range(int(rng.integers(0, 4))):
            members.add(int(rng.integers(0, num_diseases)))
        edge_dict[f"CoreGene-{g:03d}"] = [disease_names[d] for d in sorted(members)]
    sizes = zipf_edge_sizes(
        num_genes - num_core_genes, mean_size=4.0, max_size=25, exponent=2.0, rng=rng
    )
    for g, k in enumerate(sizes):
        k = int(min(k, num_diseases))
        members = rng.choice(num_diseases, size=k, replace=False, p=probabilities)
        edge_dict[f"Gene-{g:04d}"] = [disease_names[d] for d in sorted(members)]
    return hypergraph_from_edge_dict(edge_dict)


def condmat_surrogate(
    num_authors: int = 900,
    num_papers: int = 1600,
    max_shared_papers: int = 16,
    band_papers: int = 50,
    band_window: int = 13,
    seed: SeedLike = 0,
) -> Hypergraph:
    """Author–paper surrogate of the condMat network (Figure 6 experiment).

    Vertices are authors, hyperedges are papers.  Besides a general
    collaboration background, two structures are planted:

    * a *sliding-window collaboration band*: ``band_papers`` papers whose
      author lists are consecutive windows of ``band_window`` authors, so
      papers ``d`` apart share ``band_window − d`` authors.  For
      ``s <= band_window − 1`` this band is the largest s-connected
      component; its s-line graph is a band graph whose bandwidth (and
      hence algebraic connectivity) shrinks as ``s`` grows — the dip the
      paper observes for s = 3..12;
    * a *prolific collective* of ``max_shared_papers`` papers written by the
      same 20-author team, so that for ``s >= band_window`` the largest
      component becomes this dense near-clique and the connectivity rises
      sharply (the paper's jump at s = 13).
    """
    rng = make_rng(seed)
    author_names = [f"Author-{i:04d}" for i in range(num_authors)]
    edge_dict: Dict[str, List[str]] = {}
    paper_id = 0

    def add_paper(member_ids: Sequence[int]) -> None:
        nonlocal paper_id
        edge_dict[f"Paper-{paper_id:05d}"] = [
            author_names[a % num_authors] for a in sorted(set(member_ids))
        ]
        paper_id += 1

    # (a) Prolific collective: a 20-author team co-authoring many papers.
    team = list(range(20))
    for _ in range(max_shared_papers):
        extras = rng.choice(
            np.arange(20, num_authors), size=int(rng.integers(0, 3)), replace=False
        )
        add_paper(team + extras.tolist())

    # (b) Sliding-window collaboration band for mid-range s.
    band_start = 20
    for t in range(band_papers):
        add_paper(list(range(band_start + t, band_start + t + band_window)))

    # (c) Background collaboration: small papers with power-law author weights.
    weights = power_law_weights(num_authors, exponent=2.3, min_weight=1.0, rng=rng)
    probabilities = weights / weights.sum()
    remaining = max(num_papers - paper_id, 0)
    sizes = zipf_edge_sizes(
        max(remaining, 1), mean_size=3.0, max_size=12, exponent=2.2, rng=rng
    )
    for k in sizes[:remaining]:
        k = int(min(max(k, 1), num_authors))
        members = rng.choice(num_authors, size=k, replace=False, p=probabilities)
        add_paper(members.tolist())
    return hypergraph_from_edge_dict(edge_dict)


def compboard_surrogate(
    num_companies: int = 300, num_members: int = 450, seed: SeedLike = 0
) -> Hypergraph:
    """Board-member–company surrogate (Figure 4): members are hyperedges."""
    rng = make_rng(seed)
    weights = power_law_weights(num_companies, exponent=2.1, min_weight=1.0, rng=rng)
    sizes = zipf_edge_sizes(num_members, mean_size=3.0, max_size=15, exponent=2.0, rng=rng)
    h = chung_lu_hypergraph(weights, sizes, seed=rng)
    return add_overlap_core(h, num_core_edges=8, core_size=6, seed=rng)


def lesmis_surrogate(
    num_scenes: int = 180, num_characters: int = 80, seed: SeedLike = 0
) -> Hypergraph:
    """Character–scene surrogate of the Les Misérables network (Figure 4)."""
    rng = make_rng(seed)
    weights = power_law_weights(num_scenes, exponent=1.8, min_weight=1.0, rng=rng)
    sizes = zipf_edge_sizes(num_characters, mean_size=8.0, max_size=60, exponent=1.8, rng=rng)
    h = chung_lu_hypergraph(weights, sizes, seed=rng)
    return add_overlap_core(h, num_core_edges=5, core_size=10, seed=rng)


def virology_surrogate(
    num_conditions: int = 201,
    num_genes: int = 600,
    seed: SeedLike = 0,
) -> Hypergraph:
    """Gene–condition surrogate of the virology transcriptomics data (Figure 5).

    Vertices are experimental conditions (201, as in the paper); hyperedges
    are genes.  Six hub genes — the genes the paper identifies as most
    important — are planted with large, strongly overlapping condition sets;
    IFIT1 and USP18 share more than 100 conditions, reproducing the paper's
    headline observation.  The remaining genes are background with small
    condition sets.
    """
    rng = make_rng(seed)
    condition_names = [f"Condition-{i:03d}" for i in range(num_conditions)]
    edge_dict: Dict[str, List[str]] = {}

    def conditions(ids: Sequence[int]) -> List[str]:
        return [condition_names[i] for i in ids if 0 <= i < num_conditions]

    # Hub genes with planted overlaps.  IFIT1 ∩ USP18 = 120 conditions.
    edge_dict["IFIT1"] = conditions(range(0, 150))
    edge_dict["USP18"] = conditions(range(30, 160))
    edge_dict["ISG15"] = conditions(range(0, 110))
    edge_dict["IL6"] = conditions(range(20, 125))
    edge_dict["ATF3"] = conditions(range(60, 170))
    edge_dict["RSAD2"] = conditions(range(45, 150))
    # Two satellite groups bridged only through IFIT1/USP18, so those two
    # genes carry the highest s-betweenness at moderate s.
    for g in range(8):
        start = int(rng.integers(0, 40))
        edge_dict[f"GroupA-{g}"] = conditions(range(start, start + 25))
    for g in range(8):
        start = int(rng.integers(130, 170))
        edge_dict[f"GroupB-{g}"] = conditions(range(start, start + 25))
    # Background genes: few conditions each.
    sizes = zipf_edge_sizes(
        num_genes - len(edge_dict), mean_size=3.0, max_size=12, exponent=2.2, rng=rng
    )
    for g, k in enumerate(sizes):
        k = int(min(k, num_conditions))
        members = rng.choice(num_conditions, size=k, replace=False)
        edge_dict[f"Gene-{g:04d}"] = conditions(sorted(int(m) for m in members))
    return hypergraph_from_edge_dict(edge_dict)


def imdb_surrogate(
    num_movies: int = 4000,
    num_background_actors: int = 600,
    collaboration_threshold: int = 100,
    seed: SeedLike = 0,
) -> Hypergraph:
    """Actor–movie surrogate of the IMDB case study (Section V-C).

    Vertices are movies; hyperedges are actors (the set of movies they
    appear in).  Four collaboration groups are planted so that, at
    ``s = collaboration_threshold``, the s-line graph consists of exactly
    the paper's reported components: a 5-actor star centred on Adoor Bhasi
    (he shares >= 100 movies with each partner, the partners share < 100
    pairwise) and three pairs.
    """
    rng = make_rng(seed)
    movie_names = [f"Movie-{i:05d}" for i in range(num_movies)]
    edge_dict: Dict[str, List[str]] = {}

    def movies(ids: Sequence[int]) -> List[str]:
        return [movie_names[i] for i in ids if 0 <= i < num_movies]

    t = collaboration_threshold
    # Group 1: star centred on Adoor Bhasi.  Adoor appears in movies 0..4t-1;
    # each partner shares a disjoint block of size t+10 with him, so partner
    # pairs overlap in 0 movies (< t) while each shares >= t with Adoor.
    star = IMDB_GROUPS[0]
    adoor, partners = star[0], star[1:]
    edge_dict[adoor] = movies(range(0, 4 * (t + 10)))
    for idx, partner in enumerate(partners):
        start = idx * (t + 10)
        edge_dict[partner] = movies(range(start, start + t + 10))
    offset = 4 * (t + 10)
    # Groups 2-4: pairs sharing >= t movies, in disjoint movie blocks.
    for pair in IMDB_GROUPS[1:]:
        a, b = pair
        edge_dict[a] = movies(range(offset, offset + t + 20))
        edge_dict[b] = movies(range(offset + 10, offset + t + 15))
        offset += t + 40
    # Background actors: few movies each, far below the collaboration threshold.
    sizes = zipf_edge_sizes(
        num_background_actors, mean_size=6.0, max_size=40, exponent=2.0, rng=rng
    )
    for a, k in enumerate(sizes):
        k = int(min(k, num_movies))
        members = rng.choice(num_movies, size=k, replace=False)
        edge_dict[f"Actor-{a:04d}"] = movies(sorted(int(m) for m in members))
    return hypergraph_from_edge_dict(edge_dict)
