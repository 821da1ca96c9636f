// Package dicongest forwards to package congest, whose Run simulates
// digraphs as well as graphs. It is kept only for the benchmark harness
// under perfbench/, which still names it; everything else uses congest.
package dicongest

import (
	"congesthard/internal/congest"
	"congesthard/internal/graph"
)

// The simulator's types, under their historical names.
type (
	Message  = congest.Message
	Incoming = congest.Incoming
	Local    = congest.Local
	Node     = congest.Node
	Factory  = congest.Factory
	FuncNode = congest.FuncNode
	Options  = congest.Options
	Arena    = congest.Arena
	Result   = congest.Result
)

// Run is congest.Run on a digraph.
func Run(d *graph.Digraph, factory Factory, opts Options) (*Result, error) {
	return congest.Run(d, factory, opts)
}
