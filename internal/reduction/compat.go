package reduction

import "congesthard/internal/graph"

// This file keeps kind-specific names that the benchmark harness
// (perfbench/) still uses. Nothing else may use them: internal/lint's
// TestCompatAliasesStayPerfbenchOnly fails on any other reference.

// Algorithm is AlgorithmOf over undirected instances.
type Algorithm = AlgorithmOf[*graph.Graph]

// DigraphAlgorithm is AlgorithmOf over directed instances.
type DigraphAlgorithm = AlgorithmOf[*graph.Digraph]

// CertifyDigraphCtx is CertifyCtx over directed instances.
var CertifyDigraphCtx = CertifyCtx[*graph.Digraph]

// VerifyDigraphSimulation is VerifySimulation over directed instances.
var VerifyDigraphSimulation = VerifySimulation[*graph.Digraph]
