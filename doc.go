// Package repro is a from-scratch reproduction of the framework surveyed
// in "Rethinking Eventual Consistency" (Bernstein & Das, SIGMOD 2013): a
// replicated key-value store with pluggable consistency — eventual
// (gossip/anti-entropy), session guarantees (Bayou), causal+ (COPS),
// tunable partial quorums with dotted version vectors (Dynamo), primary
// copy, and Multi-Paxos — plus CRDTs, logical clocks, and a
// deterministic discrete-event network simulator underneath.
//
// The public surface is internal/core (the unified store API),
// cmd/ecbench (the experiment suite E1–E11 from DESIGN.md), cmd/ecdemo
// (a scripted partition scenario per model), and the runnable programs
// under examples/.
package repro
