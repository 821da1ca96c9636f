// Command certify-directed walks the directed reduction engine end to end
// on the Theorem 2.2 Hamiltonian path family: it certifies the exact
// collect-and-solve upper bound over every input pair through the
// simulator on the digraph, shows the greedy path-walking heuristic being
// flagged as not deciding the predicate, and extracts one run's two-party
// transcript over the arc cut — Theorem 1.1 for the paper's directed
// constructions made concrete.
package main

import (
	"fmt"
	"log"

	"congesthard/internal/algorithms"
	"congesthard/internal/comm"
	"congesthard/internal/congest"
	"congesthard/internal/constructions/hamlb"
	"congesthard/internal/graph"
	"congesthard/internal/reduction"
)

func main() {
	fam, err := hamlb.New(2)
	if err != nil {
		log.Fatal(err)
	}

	// 1. Certify the exact algorithm over all 2^(2K) = 256 pairs: every
	// run is a real directed CONGEST simulation (full-duplex links over
	// the arcs) with the Alice-Bob arc cut metered.
	rep, err := reduction.Certify(fam, reduction.CollectHamPath(fam),
		reduction.Config{Seed: 1, TranscriptChecks: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collect-and-solve on the Hamiltonian path family: %d/%d pairs correct\n",
		len(rep.Pairs)-rep.Mismatches, len(rep.Pairs))
	fmt.Printf("  worst run: %d rounds, Theorem 1.1 budget 2*T*B*|E_cut| = %d bits >= CC(¬DISJ at K=%d) = %.0f\n",
		rep.MaxRounds, rep.SimBits, rep.Stats.K, rep.CCBound)

	// 2. The greedy walk (always step to the smallest-id unvisited
	// out-neighbor) does NOT decide Hamiltonicity: Certify counts
	// the pairs where it misdecides — one-sided "no"s on yes-instances.
	greedy, err := reduction.Certify(fam, reduction.GreedyHamPath(fam), reduction.Config{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("greedy-path heuristic: flagged on %d/%d pairs\n",
		greedy.Mismatches, len(greedy.Pairs))

	// 3. Extract the two-party transcript of one intersecting pair and
	// verify the simulation invariant: replaying Bob's recorded messages
	// against Alice's side alone reproduces her run exactly.
	x, _ := comm.BitsFromUint64(fam.K(), 0b0110)
	y, _ := comm.BitsFromUint64(fam.K(), 0b0011)
	d, err := fam.Build(x, y)
	if err != nil {
		log.Fatal(err)
	}
	factory, _, err := algorithms.CollectFactory(d, 0, algorithms.CollectSpec[*graph.Digraph]{
		Eval: algorithms.Stateless(func(component *graph.Digraph) (int64, error) { return int64(component.M()), nil }),
	})
	if err != nil {
		log.Fatal(err)
	}
	transcript, res, err := reduction.VerifySimulation(d, fam.AliceSide(), factory, congest.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("transcript of (x=%s, y=%s): %d crossing messages, %d bits A->B, %d bits B->A over %d rounds\n",
		x, y, len(transcript.Entries), transcript.BitsAB, transcript.BitsBA, res.Rounds)
	fmt.Println("simulation invariant verified: Alice's view is her side plus the transcript")
}
