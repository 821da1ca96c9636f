package lbfamily

import "congesthard/internal/graph"

// This file keeps kind-specific names that the benchmark harness
// (perfbench/) still uses. Nothing else may use them: internal/lint's
// TestCompatAliasesStayPerfbenchOnly fails on any other reference.

// DeltaFamily is DeltaFamilyOf over undirected instances.
type DeltaFamily = DeltaFamilyOf[*graph.Graph]

// DeltaDigraphFamily is DeltaFamilyOf over directed instances.
type DeltaDigraphFamily = DeltaFamilyOf[*graph.Digraph]
