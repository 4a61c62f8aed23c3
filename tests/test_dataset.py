import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import retrobio.fingerprint
import retrobio.pattern
from retrobio import dataset as ds
from retrobio.fingerprint import Fingerprinter
from retrobio.molgraph import atom_words, canonicalize, parse_smiles
from retrobio.pattern import enumerate_precursors, parse_smarts_template

from conftest import molecules

ALDEHYDE = parse_smarts_template(
    "[C:1]([H])([H:2])[O:3][H]>>[C:1]([H:2])=[O:3]",
    template_id="T01",
    ec_numbers=("1.1.1.-",),
)
THIOL = parse_smarts_template(
    "[C:1][O:2]>>[C:1][S:2]", template_id="T03", ec_numbers=("2.8.1.-",)
)
FLUORO = parse_smarts_template(
    "[C:1][H]>>[C:1]F", template_id="T05", ec_numbers=("1.14.1.-",)
)


class TestCleanCompound:
    def test_halogen_placeholder(self):
        cleaned = ds.clean_compound("CX")
        assert cleaned.key == canonicalize(parse_smiles("CCl"))
        assert cleaned.repaired

    def test_already_clean(self):
        cleaned = ds.clean_compound("CCO")
        assert cleaned.key == "CCO"
        assert not cleaned.repaired

    def test_alkyl_placeholders(self):
        assert ds.clean_compound("CR").key == "CC"
        assert ds.clean_compound("CR#").key == "CC"
        assert ds.clean_compound("OR").repaired

    def test_unfixable(self):
        with pytest.raises(ds.Unfixable):
            ds.clean_compound("C(")

    def test_table_counts_unresolved_and_fixed(self):
        entries = [("c1", "CCO"), ("c2", "UNRESOLVED"), ("c3", "C(("), ("c4", "CX")]
        monos, stats = ds.clean_reactions([], entries)
        assert monos == []
        assert stats.compounds_unresolved == 2
        assert stats.generic_fixed == 1
        raws = [ds.RawReaction(f"r{i}", (), (f"c{i}",), ("O",)) for i in range(1, 5)]
        monos, stats = ds.clean_reactions(raws, entries)
        # c2 and c3 resolve to nothing, so r2 and r3 lose their reactants
        assert [(m.parent_id, m.reactant_keys) for m in monos] == [
            ("r1", ("CCO",)), ("r4", (canonicalize(parse_smiles("CCl")),))
        ]
        assert stats.reactions_dropped == 2


class TestCleanReactions:
    def make(self):
        raws = [
            ds.RawReaction("r1", ("1.1.1.1",), ("CCO", "???"), ("CC=O",)),
            ds.RawReaction("r2", ("2.2.2.2",), ("CCO",), ("???",)),
            ds.RawReaction("r3", ("3.3.3.3",), ("CCO",), ("CC=O", "C")),
            ds.RawReaction("r4", ("4.4.4.4",), ("OCC",), ("CC=O", "C")),
        ]
        return ds.clean_reactions(raws, [("???", "UNRESOLVED")])

    def test_whole_side_loss_drops_reaction(self):
        monos, stats = self.make()
        assert all(m.parent_id != "r2" for m in monos)
        assert stats.reactions_dropped == 1

    def test_partial_loss_keeps_and_flags(self):
        monos, stats = self.make()
        (r1,) = [m for m in monos if m.parent_id == "r1"]
        assert r1.reactant_keys == ("CCO",)
        assert stats.reactions_degraded == 1

    def test_duplicates_merge_with_ec_union(self):
        monos, stats = self.make()
        merged = [m for m in monos if m.parent_id == "r3"]
        assert [m.ec_numbers for m in merged] == [("3.3.3.3", "4.4.4.4")] * 2
        assert all(m.parent_id != "r4" for m in monos)
        assert stats.duplicates_merged == 1

    def test_conservation(self):
        monos, stats = self.make()
        kept = len({m.parent_id for m in monos})
        assert stats.reactions_in == (
            kept + stats.duplicates_merged + stats.reactions_dropped
        )

    def test_raw_token_repair_counts(self):
        raws = [
            ds.RawReaction("r1", (), ("CCX", "c1"), ("CCO",)),
            ds.RawReaction("r2", (), ("R#CO",), ("CR",)),
        ]
        monos, stats = ds.clean_reactions(raws, [("c1", "RO")])
        assert monos[0].reactant_keys == ("CCCl", "CO")
        assert monos[1].reactant_keys == ("CCO",)
        assert monos[1].product_key == "CC"
        # one table entry and three raw token occurrences were repaired
        assert stats.generic_fixed == 4

    def test_unresolved_counts_per_entry_and_per_occurrence(self):
        raws = [
            ds.RawReaction("r1", (), ("CCO", "lost"), ("CC=O",)),
            ds.RawReaction("r2", (), ("CCO", "lost", "bad"), ("CC=O", "lost")),
        ]
        _, stats = ds.clean_reactions(
            raws, [("lost", "UNRESOLVED"), ("bad", "C(("), ("unused", "C1CC")]
        )
        # three entries, then four occurrences in the reactions
        assert stats.compounds_unresolved == 3 + 4
        assert stats.reactions_degraded == 2

    def test_each_distinct_string_cleaned_once(self, monkeypatch):
        calls = Counter()
        clean_compound = ds.clean_compound

        def counted(raw):
            calls[raw] += 1
            return clean_compound(raw)

        monkeypatch.setattr(ds, "clean_compound", counted)
        raws = [
            ds.RawReaction("r1", (), ("CCX", "c1", "bad"), ("CCO",)),
            ds.RawReaction("r2", (), ("CCX", "RO"), ("CCO", "c2")),
            ds.RawReaction("r3", (), ("bad", "OCC"), ("CCX",)),
        ]
        _, stats = ds.clean_reactions(raws, [("c1", "RO"), ("c2", "C((")])
        assert calls == dict.fromkeys(["RO", "C((", "CCX", "bad", "CCO", "OCC"], 1)
        # still counted per occurrence: the c1 entry, the RO token and three
        # CCX tokens were repaired; the c2 entry, its one use and the two
        # "bad" tokens are unresolved
        assert stats.generic_fixed == 5
        assert stats.compounds_unresolved == 4

    def test_merge_before_split(self):
        # Whole reactions merge, so A>>B.C twice is one reaction whose two
        # children both carry the EC union, while A>>B.C and A>>B.D stay
        # apart and each gives the child A>>B under its own id.
        raws = [
            ds.RawReaction("r1", ("1.1.1.1",), ("CC",), ("CCO", "O")),
            ds.RawReaction("r2", ("2.2.2.2",), ("CC",), ("O", "CCO")),
            ds.RawReaction("r3", ("3.3.3.3",), ("CC",), ("CCO", "N")),
        ]
        monos, stats = ds.clean_reactions(raws, [])
        assert [(m.parent_id, m.ec_numbers, m.product_key) for m in monos] == [
            ("r1", ("1.1.1.1", "2.2.2.2"), "CCO"),
            ("r1", ("1.1.1.1", "2.2.2.2"), "O"),
            ("r3", ("3.3.3.3",), "CCO"),
            ("r3", ("3.3.3.3",), "N"),
        ]
        assert all(m.reactant_keys == ("CC",) for m in monos)
        assert stats.duplicates_merged == 1
        assert (stats.mono_reactions, stats.unique_products) == (4, 3)


class TestMonoSplit:
    def test_two_products_two_children(self):
        raw = ds.RawReaction("r", ("1.1.1.1",), ("CC", "O"), ("CCO", "C"))
        children, _ = ds.clean_reactions([raw], [])
        assert [c.product_key for c in children] == ["C", "CCO"]
        assert all(c.reactant_keys == ("CC", "O") for c in children)
        assert all(c.parent_id == "r" for c in children)
        assert all(c.ec_numbers == ("1.1.1.1",) for c in children)

    def test_mono_already(self):
        children, stats = ds.clean_reactions([ds.RawReaction("r", (), ("CC",), ("CCO",))], [])
        assert len(children) == 1 == stats.mono_reactions == stats.unique_products

    def test_counting_identity(self):
        import random

        rng = random.Random(0)
        raws = []
        total = 0
        pool = ["C", "CC", "CCC", "CCO", "CO", "O", "CCCC", "CC=O"]
        for i in range(100):
            k = rng.randint(1, 3)
            total += k
            # distinct reactants, so no two reactions merge
            reactant = "C" * (i + 1)
            raws.append(ds.RawReaction(f"r{i}", (), (reactant,), tuple(rng.sample(pool, k))))
        children, stats = ds.clean_reactions(raws, [])
        assert len(children) == total == stats.mono_reactions
        assert stats.unique_products == len({c.product_key for c in children})
        assert stats.duplicates_merged == 0


class TestAugmentation:
    def test_strict_check_saturation(self):
        # the only template reproduces the true precursor: zero negatives
        positive = ds.MonoProductReaction("p", (), ("CC=O",), "CCO")
        negatives = ds.augment_negatives([positive], [ALDEHYDE])
        assert negatives == []

    def test_set_difference(self):
        positive = ds.MonoProductReaction("p", (), ("CC=O",), "CCO")
        stats = ds.CorpusStats()
        negatives = ds.augment_negatives(
            [positive], [ALDEHYDE, THIOL, FLUORO], stats=stats
        )
        keys = {n.steps[0] for n in negatives}
        assert ("CC=O",) not in keys  # removed by the strict check
        assert ("CCS",) in keys
        assert stats.negatives_generated == len(negatives) > 0

    def test_partition_identity(self):
        positives = [
            ds.MonoProductReaction("p1", (), ("CC=O",), "CCO"),
            ds.MonoProductReaction("p2", (), ("CCC=O",), "CCCO"),
        ]
        stats = ds.CorpusStats()
        negatives = ds.augment_negatives(
            positives, [ALDEHYDE, THIOL, FLUORO], stats=stats
        )
        by_product = {}
        for n in negatives:
            by_product.setdefault(n.target_key, []).append(n)
        assert sum(len(v) for v in by_product.values()) == len(negatives)
        assert set(by_product) <= {"CCO", "CCCO"}
        histogram_total = sum(
            k * v for k, v in stats.negatives_per_positive_histogram.items()
        )
        assert histogram_total == len(negatives)

    def test_worker_count_invariant(self):
        positives = [
            ds.MonoProductReaction("p1", (), ("CC=O",), "CCO"),
            ds.MonoProductReaction("p2", (), ("CCC=O",), "CCCO"),
            ds.MonoProductReaction("p3", (), ("CCCC=O",), "CCCCO"),
        ]
        templates = [ALDEHYDE, THIOL, FLUORO]
        one = ds.augment_negatives(positives, templates, max_workers=1)
        four = ds.augment_negatives(positives, templates, max_workers=4)
        assert one == four

    def test_disjoint_product_flagging(self, fallback_keys):
        # "O" shares no atom word with "CCCCCCCC", so the fingerprint
        # fallback decides it, and it alone.
        monos = [
            ds.MonoProductReaction("keep", (), ("CC=O",), "CCO"),
            ds.MonoProductReaction("flag", (), ("CCCCCCCC",), "O"),
        ]
        stats = ds.CorpusStats()
        flagged = ds.flag_disjoint_products(monos, stats)
        assert flagged == ["flag"] == fingerprint_flags(monos)
        assert stats.disjoint_product_reactions == 1
        assert not shares_a_word("O", ("CCCCCCCC",))
        assert sorted(fallback_keys) == ["CCCCCCCC", "O"]


def fingerprint_flags(monos):
    """Ids of the mono reactions whose product fingerprint shares no bit
    with its OR-ed reactant fingerprints, every reaction fingerprinted: the
    reference for the word prefilter."""
    fp = Fingerprinter()
    fp.memoize((k, None) for m in monos for k in (m.product_key, *m.reactant_keys))
    return [
        m.parent_id for m in monos
        if fp.of_key(m.product_key).bits & fp.of_keys(m.reactant_keys).bits == 0
    ]


def flags_and_count(monos):
    stats = ds.CorpusStats()
    flagged = ds.flag_disjoint_products(monos, stats)
    return flagged, stats.disjoint_product_reactions


def shares_a_word(product, reactants):
    words = {w for key in reactants for w in atom_words(parse_smiles(key))}
    return not words.isdisjoint(atom_words(parse_smiles(product)))


class CountingFingerprinter(Fingerprinter):
    """Records every key the prefilter hands to the fingerprint fallback."""

    keys: list[str] = []

    def memoize(self, pairs):
        pairs = list(pairs)
        type(self).keys += [key for key, _ in pairs]
        super().memoize(pairs)


@pytest.fixture
def fallback_keys(monkeypatch):
    monkeypatch.setattr(CountingFingerprinter, "keys", [])
    monkeypatch.setattr(retrobio.fingerprint, "Fingerprinter", CountingFingerprinter)
    return CountingFingerprinter.keys


# Small molecules with no carbon, and carbon-only ones: no word of one kind
# is a word of the other.
NO_CARBON = ["O", "N", "S", "P", "F", "Cl", "Br", "I", "OO", "NN", "N#N", "O=O", "NO",
             "N=O", "SS", "[O-]", "[NH4+]", "ClCl", "BrBr", "FF", "II", "OS", "[H][H]"]
CARBON_ONLY = ["C" * n for n in range(1, 13)] + [
    "C=C", "C#C", "CC(C)C", "CC(C)(C)C", "C1CC1", "C1CCCCC1", "c1ccccc1", "C=CC=C",
]


def collision_pair():
    """The first word-disjoint (reactant, product) pair whose 512-bit
    fingerprints still share a bit."""
    fp = Fingerprinter()
    for reactant in CARBON_ONLY:
        for product in NO_CARBON:
            if fp.of_key(reactant).bits & fp.of_key(product).bits:
                return reactant, product
    raise AssertionError("no colliding pair among the small molecules")


@st.composite
def mono_reactions(draw):
    """Mono reactions over drawn C/N/O molecules and the small fixed
    molecules above, so that both shared and disjoint words occur."""
    key = st.one_of(
        molecules(max_heavy=4).map(canonicalize),
        st.sampled_from([canonicalize(parse_smiles(s)) for s in NO_CARBON + CARBON_ONLY]),
    )
    monos = []
    for i in range(draw(st.integers(1, 6))):
        reactants = tuple(sorted(draw(st.lists(key, min_size=1, max_size=3))))
        monos.append(ds.MonoProductReaction(f"r{i}", (), reactants, draw(key)))
    return monos


class TestDisjointProducts:
    """The atom-word prefilter flags exactly what fingerprinting every
    reaction flags."""

    def test_decided_by_words_fingerprints_nothing(self, fallback_keys):
        monos = [ds.MonoProductReaction("keep", (), ("CC=O",), "CCO")]
        assert shares_a_word("CCO", ("CC=O",))
        assert flags_and_count(monos) == ([], 0) == (fingerprint_flags(monos), 0)
        assert fallback_keys == []

    def test_word_disjoint_bit_collision_is_not_flagged(self, fallback_keys):
        reactant, product = collision_pair()
        assert not shares_a_word(product, (reactant,))
        monos = [ds.MonoProductReaction("collide", (), (reactant,), product)]
        assert flags_and_count(monos) == ([], 0)
        assert fingerprint_flags(monos) == []
        assert sorted(fallback_keys) == sorted([reactant, product])

    @pytest.mark.parametrize("max_length", [5, 8, 9])
    def test_synthetic_corpus(self, max_length):
        from synthdata import build_corpus

        _, _, positives, _ = build_corpus(max_length)
        flagged = fingerprint_flags(positives)
        assert flags_and_count(positives) == (flagged, len(flagged))

    def test_golden_ingest_corpus(self):
        from make_golden import GOLDEN

        rows = ds.read_reactions_tsv(GOLDEN / "ingest" / "mono_reactions.tsv")
        monos = [
            ds.MonoProductReaction(r.reaction_id, r.ec_numbers, r.reactants, r.products[0])
            for r in rows
        ]
        assert flags_and_count(monos) == (["r06", "r09"], 2)
        assert fingerprint_flags(monos) == ["r06", "r09"]

    @given(mono_reactions())
    @settings(max_examples=150, deadline=None)
    def test_drawn_reactions(self, monos):
        flagged = fingerprint_flags(monos)
        assert flags_and_count(monos) == (flagged, len(flagged))


def fresh_memo_per_call(target, templates, keys_of=None):
    return enumerate_precursors(target, templates)


class TestAugmentKeyMemo:
    """One canonical-key memo per augment run must give what one memo per
    product gives."""

    @pytest.fixture(scope="class")
    def corpus(self):
        from synthdata import build_corpus

        _, templates, positives, _ = build_corpus(max_length=6)
        return positives, templates

    @staticmethod
    def augment(corpus, workers):
        positives, templates = corpus
        stats = ds.CorpusStats()
        negatives = ds.augment_negatives(positives, templates, max_workers=workers, stats=stats)
        return negatives, stats

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_shared_memo_equals_fresh_memo_per_product(self, corpus, workers, monkeypatch):
        # More threads than cores, switching often, so they share the memo
        # mid-rewrite.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            shared = self.augment(corpus, workers)
        finally:
            sys.setswitchinterval(interval)
        assert len(shared[0]) > 300
        monkeypatch.setattr(ds, "enumerate_precursors", fresh_memo_per_call)
        assert self.augment(corpus, workers) == shared

    def test_one_canonicalize_per_distinct_graph(self, corpus, monkeypatch):
        calls = Counter()

        def counting(mol):
            calls[mol.atoms, mol.bonds] += 1
            return canonicalize(mol)

        monkeypatch.setattr(retrobio.pattern, "canonicalize", counting)
        self.augment(corpus, 1)
        assert calls and max(calls.values()) == 1
        shared = sum(calls.values())
        calls.clear()
        monkeypatch.setattr(ds, "enumerate_precursors", fresh_memo_per_call)
        self.augment(corpus, 1)
        # different products do rewrite to the same graphs
        assert sum(calls.values()) > shared


class TestPathwayPairs:
    CHAIN = ds.PathwayChain("c1", "CCO", ("CC=O",), ("CC(=O)O",), "CC=O")

    @staticmethod
    def negatives(product: str, *alternatives: str) -> list[ds.DatasetRow]:
        return [ds.DatasetRow(ds.NEGATIVE, product, product, ((alt,),)) for alt in alternatives]

    def test_substitution_counts(self):
        out = ds.make_pathway_pairs([self.CHAIN], self.negatives("CCO", "CCS", "CCF", "CCN"))
        assert len(out) == 3
        assert all(c.label == ds.NEGATIVE for c in out)
        assert all(c.group_key == "c1" for c in out)
        assert {c.steps[0] for c in out} == {("CCS",), ("CCF",), ("CCN",)}

    def test_both_steps_substituted(self):
        negatives = self.negatives("CCO", "CCS") + self.negatives("CC=O", "SCC=O", "OCC=O")
        out = ds.make_pathway_pairs([self.CHAIN], negatives)
        assert len(out) == 3
        step2_variants = {c.steps[1] for c in out if c.steps[0] == ("CC=O",)}
        assert step2_variants == {("SCC=O",), ("OCC=O",)}

    def test_no_negatives_available(self):
        assert ds.make_pathway_pairs([self.CHAIN], []) == []

    def test_positive_never_among_negatives(self):
        out = ds.make_pathway_pairs([self.CHAIN], self.negatives("CCO", "CC=O", "CCS"))
        assert self.CHAIN.row().steps not in {c.steps for c in out}


class TestSplits:
    def _examples(self, n_groups=100, per_group=3):
        out = []
        for g in range(n_groups):
            out.append(ds.DatasetRow(ds.POSITIVE, f"g{g}", f"g{g}", ((f"{'C' * (g + 1)}",),)))
            out += [
                ds.DatasetRow(ds.NEGATIVE, f"g{g}", f"g{g}", (("O",),))
                for _ in range(per_group - 1)
            ]
        return out

    def test_ten_percent_of_100_groups(self):
        examples = self._examples()
        train, test = ds.split_train_test(examples, 0.1, seed=3)
        assert len({e.group_key for e in test}) == 10
        assert len({e.group_key for e in train}) == 90

    def test_same_seed_identical(self):
        examples = self._examples()
        assert ds.split_train_test(examples, 0.1, 7) == ds.split_train_test(
            examples, 0.1, 7
        )

    def test_no_group_straddles(self):
        examples = self._examples()
        train, test = ds.split_train_test(examples, 0.25, seed=1)
        assert {e.group_key for e in train} & {e.group_key for e in test} == set()

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            ds.split_train_test(self._examples(), 0.0, 1)

    def test_subsample_keeps_positives(self):
        examples = self._examples(20, 5)
        kept = ds.subsample_negatives(examples, 0.3, seed=2)
        assert sum(1 for e in kept if e.label == ds.POSITIVE) == 20
        n_neg = sum(1 for e in kept if e.label == ds.NEGATIVE)
        assert n_neg == round(0.3 * 80)
        assert ds.subsample_negatives(examples, 0.3, seed=2) == kept

    @pytest.mark.parametrize("fraction", [-0.5, 1.5, 2.0, float("nan")])
    def test_subsample_fraction_bounds(self, fraction):
        with pytest.raises(ValueError, match=r"fraction must be in \[0, 1\]"):
            ds.subsample_negatives(self._examples(), fraction, 1)

    def test_subsample_fraction_one_keeps_everything_in_order(self):
        examples = self._examples(20, 5)
        assert ds.subsample_negatives(examples, 1.0, seed=2) == examples


class TestFileFormats:
    def test_reaction_and_pathway_round_trip(self, tmp_path):
        reactions = tmp_path / "reactions.tsv"
        reactions.write_text(
            "# header comment\n"
            "r1\t1.1.1.1;2.2.2.2\tCCO.O\tCC=O\n",
            encoding="utf-8",
        )
        (raw,) = ds.read_reactions_tsv(reactions)
        assert raw.ec_numbers == ("1.1.1.1", "2.2.2.2")
        assert raw.reactants == ("CCO", "O")

        pathways = tmp_path / "pathways.tsv"
        pathways.write_text("p1\tr1;r2;r3\n", encoding="utf-8")
        assert ds.read_pathways_tsv(pathways) == [("p1", ("r1", "r2", "r3"))]

    def test_corpus_round_trip(self, tmp_path):
        mono = ds.MonoProductReaction("r1", ("1.1.1.1", "2.2.2.2"), ("CCO", "O"), "CC=O")
        path = tmp_path / "mono_reactions.tsv"
        ds.write_reactions_tsv(path, [mono])
        assert path.read_bytes() == (
            b"# reaction_id\tec_numbers\treactant_smiles\tproduct_smiles\n"
            b"r1\t1.1.1.1;2.2.2.2\tCCO.O\tCC=O\n"
        )
        assert ds.read_reactions_tsv(path) == [
            ds.RawReaction("r1", mono.ec_numbers, mono.reactant_keys, (mono.product_key,))
        ]

    def test_examples_round_trip(self, tmp_path):
        rows = [
            ds.MonoProductReaction("p", ("1.1.1.1",), ("CC=O",), "CCO").row(),
            ds.DatasetRow(ds.NEGATIVE, "c", "CCO", (("CC=O",), ("CC(=O)O", "O"))),
        ]
        path = tmp_path / "rows.tsv"
        ds.write_examples_tsv(path, rows)
        assert ds.read_examples_tsv(path) == rows
        assert rows[0] == ds.DatasetRow(ds.POSITIVE, "CCO", "CCO", (("CC=O",),), 1.0)

    def test_read_rows_write_back_byte_identical(self, tmp_path):
        rows = [
            ds.MonoProductReaction("p", ("1.1.1.1",), ("CC=O",), "CCO").row(),
            ds.DatasetRow(ds.NEGATIVE, "CCO", "CCO", (("CC", "O"),), 0.25),
            ds.DatasetRow(ds.NEGATIVE, "c", "CCO", (("CC=O",), ("CC(=O)O", "O")), 3.5),
        ]
        first, second = tmp_path / "first.tsv", tmp_path / "second.tsv"
        ds.write_examples_tsv(first, rows)
        ds.write_examples_tsv(second, ds.read_examples_tsv(first))
        assert second.read_bytes() == first.read_bytes()

    def test_features_width(self):
        one = ds.MonoProductReaction("p", (), ("CC=O",), "CCO").row()
        two = ds.PathwayChain("c", "CCO", ("CC=O",), ("CC(=O)O",), "CC=O").row()
        x1, y1, w1 = ds.features_for([one])
        x2, _, _ = ds.features_for([two])
        # Packed rows: 1024 and 1536 features, eight to a byte.
        assert x1.dtype == x2.dtype == "uint8"
        assert x1.shape == (1, 128)
        assert x2.shape == (1, 192)
        assert y1[0] == 1.0 and w1[0] == 1.0

    def test_mixed_step_counts_rejected(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text(
            "positive\tg\tCCO\tCC=O\t1\n"
            "negative\tg\tCCO\tCC=O;CC(=O)O\t1\n",
            encoding="utf-8",
        )
        with pytest.raises(ValueError):
            ds.features_for(ds.read_examples_tsv(path))
