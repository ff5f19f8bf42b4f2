"""The package's public surface, pinned: a name is added to or dropped from
`nivatlab` only by editing this list too."""

import types

import nivatlab

PUBLIC_NAMES = (
    "Alphabet", "AxisOfSymmetry", "BalancedSetCertificate", "ComplexityReport", "Configuration",
    "ConfigurationError", "ConstructionError", "ConvexLatticeSet", "DiagonalFamily", "DirectionalLanguage",
    "DoublyPeriodic", "Edge", "Exactness", "ExampleSuiteResult", "ExtensionTable", "FineWilfReport",
    "FiniteDefect", "GeneratingKind", "GeneratingSetResult", "GeometryError", "HypothesisNotMet",
    "InexactDataError", "Line", "MClass", "MHReport", "MHStatus", "NivatReport", "NivatlabError",
    "NullAreaReport", "NullAreaStatus", "Pattern", "PeriodReport", "PhiReport", "Point", "SoundnessError",
    "StripLemmaReport", "StripLemmaStatus", "UnknownLetterError", "Verdict", "WindowSample", "WitnessReport",
    "Word", "audit_mlc_inequality", "axes_of_symmetry", "block", "complexity", "complexity_table",
    "config_from_dict", "construct_balanced_set", "convex_hull", "detect_periods_2d", "diagonal_expected",
    "directional_language", "directional_point_sets", "example_suite", "expansive_witness",
    "extension_counts", "extract_pattern", "find_directional_generating_set", "find_generating_set",
    "find_mlc_set", "fine_wilf", "is_generated", "is_quasi_regular", "is_vertex", "language",
    "language_report", "lemma_thickness_audit", "m_classes", "mh_check", "nivat_check", "null_area_period",
    "phi", "remark_i_instance", "strip_word", "supporting_line", "table_to_csv", "thickness_ok",
    "verify_strip_lemma", "word_complexity",
)


def test_public_names_are_exactly_the_snapshot():
    listed = {
        name for name in dir(nivatlab)
        if not name.startswith("_") and not isinstance(getattr(nivatlab, name), types.ModuleType)
    }
    assert len(PUBLIC_NAMES) == len(set(PUBLIC_NAMES)) == 80
    assert sorted(listed) == sorted(PUBLIC_NAMES)


def test_every_public_name_resolves():
    for name in PUBLIC_NAMES:
        assert getattr(nivatlab, name) is not None, name
