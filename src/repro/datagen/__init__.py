"""Workload generators, the scenario registry and the perturbation toolkit.

The paper's experimental study (Section 5) used two synthetic families;
this package grows that into a registry of named, parameterized scenarios
spanning five domains, each composable with ground-truth-preserving
perturbations — the corpus behind the golden-metrics regression tier
(``pytest -m golden``, ``repro scenarios``).

Families (:func:`~repro.datagen.registry.register_family`):

* ``retail`` — the paper's Inventory data set: combined ``items`` source
  vs separated book/music targets.  Shared knobs: ``size`` (source rows),
  ``gamma`` (``ItemType`` cardinality).  Family knobs: ``target``
  (``ryan``/``aaron``/``barrett``), ``n_target``, ``correlated`` + ``rho``
  (Section 5.3 chameleon attributes), ``pad`` (Section 5.5 noise columns);
* ``grades`` — the attribute-normalization data set (narrow exam rows vs
  wide per-exam columns).  ``size`` = students, ``gamma`` = exams.  Knobs:
  ``sigma``, ``spurious_categoricals``;
* ``clinical`` — combined ``encounters`` vs admissions / clinic-visit
  tables, contextual on ``VisitType``.  Knobs: ``n_target``;
* ``events`` — combined ``events`` listing vs concert / conference
  tables, contextual on ``EventKind``.  Knobs: ``n_target``;
* ``realestate`` — combined ``listings`` vs house / condo tables,
  contextual on ``PropertyKind`` (the Section 5.5 noise domain promoted
  to a full workload).  Knobs: ``n_target``;
* ``routing`` — repository-routing scenarios: delegates to an inner hub
  family chosen by the ``hub`` knob, so each scenario's target doubles
  as one :mod:`repro.repository` hub.  :func:`make_routing_fleet` builds
  the full M-sources × K-hubs grid with ground-truth hub labels;
* ``ingestion`` — the retail workload arriving as a messy CSV export
  (renamed headers, ``$``-prices, unit-suffixed quantities, prefixed
  SKUs, plural vocabulary) that is round-tripped through the CSV codec
  and normalized (:mod:`repro.datagen.ingestion`) before matching.

Registered scenarios (:func:`~repro.datagen.registry.scenario_names`) pair
every family with its base form plus three perturbation variants:
``-nulls`` (null injection), ``-drift`` (value-format drift + attribute
abbreviation) and ``-scrambled`` (row shuffling + vocabulary-overlap
shrinkage).  Perturbation kinds (:mod:`repro.datagen.perturb`): ``nulls``,
``format_drift``, ``rename``, ``shrink_vocab``, ``shuffle`` — all
ground-truth-preserving and seeded.

:class:`GroundTruth` carries each workload's correct contextual matches.
"""

from .clinical import (ClinicalConfig, ClinicalWorkload,
                       make_clinical_workload, visit_type_labels)
from .events import (EventsConfig, EventsWorkload, event_kind_labels,
                     make_events_workload)
from .grades import GradesConfig, GradesWorkload, exam_mean, make_grades_workload
from .ground_truth import CorrectContextualMatch, GroundTruth
from .inventory import (RetailConfig, RetailWorkload, TARGET_LAYOUTS,
                        add_correlated_attributes, gamma_labels,
                        make_retail_workload, pad_workload)
from .perturb import (PERTURBATIONS, FormatDrift, InjectNulls, Perturbation,
                      RenameAttributes, ShrinkVocabulary, ShuffleRows,
                      Workload, make_perturbation)
from .realestate import (RealEstateConfig, RealEstateWorkload,
                         make_realestate_workload, property_kind_labels,
                         realestate_column)
from .registry import (DEFAULT_PERTURBATION_VARIANTS, PerturbationSpec,
                       ScenarioSpec, build_scenario, family_names,
                       get_scenario, register_family, register_scenario,
                       registered_scenarios, scenario_names,
                       workload_fingerprint)
from .ingestion import (FEED_HEADERS, NO_STRIP_WORDS, PLURAL_MAP,
                        TAG_VOCABULARY, make_ingestion_workload,
                        make_messy_feed, normalize_feed, normalize_header,
                        normalize_product_name, parse_currency,
                        parse_quantity, parse_sku, singularize)
from .routing import (ROUTING_HUB_FAMILIES, RoutedSourceCase, RoutingFleet,
                      make_routing_fleet)

__all__ = [
    # retail
    "make_retail_workload",
    "RetailConfig",
    "RetailWorkload",
    "TARGET_LAYOUTS",
    "add_correlated_attributes",
    "pad_workload",
    "gamma_labels",
    # grades
    "make_grades_workload",
    "GradesConfig",
    "GradesWorkload",
    "exam_mean",
    # clinical
    "make_clinical_workload",
    "ClinicalConfig",
    "ClinicalWorkload",
    "visit_type_labels",
    # events
    "make_events_workload",
    "EventsConfig",
    "EventsWorkload",
    "event_kind_labels",
    # real estate
    "realestate_column",
    "make_realestate_workload",
    "RealEstateConfig",
    "RealEstateWorkload",
    "property_kind_labels",
    # ground truth
    "GroundTruth",
    "CorrectContextualMatch",
    # perturbations
    "Workload",
    "Perturbation",
    "InjectNulls",
    "FormatDrift",
    "RenameAttributes",
    "ShrinkVocabulary",
    "ShuffleRows",
    "PERTURBATIONS",
    "make_perturbation",
    # registry
    "ScenarioSpec",
    "PerturbationSpec",
    "register_family",
    "family_names",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "registered_scenarios",
    "build_scenario",
    "workload_fingerprint",
    "DEFAULT_PERTURBATION_VARIANTS",
    # repository routing
    "ROUTING_HUB_FAMILIES",
    "RoutedSourceCase",
    "RoutingFleet",
    "make_routing_fleet",
    # messy-CSV ingestion
    "FEED_HEADERS",
    "PLURAL_MAP",
    "NO_STRIP_WORDS",
    "TAG_VOCABULARY",
    "singularize",
    "normalize_header",
    "normalize_product_name",
    "parse_currency",
    "parse_quantity",
    "parse_sku",
    "make_messy_feed",
    "normalize_feed",
    "make_ingestion_workload",
]
