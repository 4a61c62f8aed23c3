"""Synthetic corpus shared by the unit and acceptance tests.

A family of branched primary alcohols with two "natural" backward steps
(alcohol -> aldehyde -> acid) and ten decoy transformations. The decoys
mostly make small remote edits, so template augmentation floods each
product with precursors more Tanimoto-similar to it than the true one;
the learned rankers must pick up the functional-group signature instead.
"""

from __future__ import annotations

from retrobio import dataset as ds
from retrobio.molgraph import canonicalize, parse_smiles
from retrobio.pattern import apply_template, parse_smarts_template

TEMPLATE_ROWS = [
    # (template_id, ec, diameter, smarts) -- all backward, mono-product lhs
    ("T01", "1.1.1.1", 2, "[C:1]([H])([H:2])[O:3][H]>>[C:1]([H:2])=[O:3]"),
    ("T02", "1.2.1.3", 2, "[C:1]([H])=[O:2]>>[C:1](=[O:2])[O][H]"),
    ("T03", "2.8.1.-", 0, "[C:1][O:2]>>[C:1][S:2]"),
    ("T04", "3.8.1.-", 0, "[O:1][H]>>[Cl:1]"),
    ("T05", "1.14.1.-", 0, "[C:1][H]>>[C:1]F"),
    ("T06", "2.6.1.-", 0, "[C:1][H]>>[C:1]N"),
    ("T07", "2.1.1.-", 0, "[O:1][H]>>[O:1]C"),
    ("T08", "4.2.1.-", 2, "[C:1]([H:2])[C:3][O:4][H]>>[C:1]=[C:3].[O:4][H:2]"),
    ("T09", "2.1.2.-", 2, "[C:1][C:2]([H])([H])[H]>>[C:1].[C:2]"),
    ("T10", "1.3.1.-", 2, "[C:1]([H])[C:2][H]>>[C:1]=[C:2]"),
    ("T11", "4.1.99.-", 0, "[C:1]([H:2])[C:3][C:4]>>[C:1]=[C:3].[C:4][H:2]"),
    ("T12", "6.4.1.-", 0, "[C:1][H]>>[C:1]C(=O)O"),
]


def make_templates():
    return [
        parse_smarts_template(s, template_id=t, ec_numbers=(ec,))
        for t, ec, _, s in TEMPLATE_ROWS
    ]


def skeleton_smiles(max_length: int = 9) -> list[str]:
    """Branched primary alcohols: linear chains plus one methyl branch."""
    out = []
    for n in range(4, max_length + 1):
        out.append("O" + "C" * n)
        for k in range(2, n):
            out.append("O" + "C" * k + "(C)" + "C" * (n - k))
    return out


def build_corpus(max_length: int = 9):
    """Positive reactions, positive 2-step chains and the template set.

    Per skeleton: the alcohol is made from its aldehyde (step 1) and the
    aldehyde from its acid (step 2); both derived by actually applying the
    true backward templates.
    """
    templates = make_templates()
    t01, t02 = templates[0], templates[1]
    alcohols = [canonicalize(parse_smiles(s)) for s in skeleton_smiles(max_length)]
    assert len(set(alcohols)) == len(alcohols)
    positives: list[ds.MonoProductReaction] = []
    chains: list[ds.PathwayChain] = []
    for i, alcohol in enumerate(alcohols):
        (app1,) = apply_template(t01, parse_smiles(alcohol))
        (aldehyde,) = app1.precursor_keys
        (app2,) = apply_template(t02, parse_smiles(aldehyde))
        (acid,) = app2.precursor_keys
        positives.append(
            ds.MonoProductReaction(
                f"rx{i}a", ("1.1.1.1",), (aldehyde,), alcohol
            )
        )
        positives.append(
            ds.MonoProductReaction(
                f"rx{i}b", ("1.2.1.3",), (acid,), aldehyde
            )
        )
        chains.append(
            ds.PathwayChain(
                chain_id=f"chain{i}",
                target_key=alcohol,
                step1_keys=(aldehyde,),
                step2_keys=(acid,),
                link_key=aldehyde,
                group_key=f"chain{i}",
            )
        )
    return alcohols, templates, positives, chains


def write_corpus_files(directory, max_length: int = 7):
    """Reactions/pathways/templates TSVs for CLI-level tests."""
    alcohols, _, positives, chains = build_corpus(max_length)
    directory.mkdir(parents=True, exist_ok=True)
    reactions = directory / "reactions.tsv"
    with open(reactions, "w", encoding="utf-8") as fh:
        fh.write("# reaction_id\tec_numbers\treactant_smiles\tproduct_smiles\n")
        for p in positives:
            fh.write(
                f"{p.parent_id}\t{';'.join(p.ec_numbers)}\t"
                f"{'.'.join(p.reactant_keys)}\t{p.product_key}\n"
            )
    pathways = directory / "pathways.tsv"
    with open(pathways, "w", encoding="utf-8") as fh:
        fh.write("# pathway_id\treaction_ids\n")
        for c in chains:
            i = c.chain_id.removeprefix("chain")
            fh.write(f"{c.chain_id}\trx{i}a;rx{i}b\n")
    templates = directory / "templates.tsv"
    with open(templates, "w", encoding="utf-8") as fh:
        fh.write("# template_id\tdirection\tdiameter\tec_numbers\tsmarts\n")
        for t, ec, d, s in TEMPLATE_ROWS:
            fh.write(f"{t}\tbwd\t{d}\t{ec}\t{s}\n")
    return reactions, pathways, templates
