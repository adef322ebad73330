// Package vclock holds the simulation epoch.
//
// Simulations (the Zeus ensemble, the P2P swarms, the commit pipeline) run
// on virtual time — a simnet.Network's clock, which starts here — so that
// experiments with hundreds of thousands of simulated servers and multi-day
// workloads finish in milliseconds of real time and are bit-for-bit
// reproducible. Components and workloads that stamp times without a network
// start from the same instant.
package vclock

import "time"

// Epoch is the arbitrary simulation start time. Using a fixed epoch keeps
// all simulated timestamps deterministic.
var Epoch = time.Date(2014, 4, 1, 0, 0, 0, 0, time.UTC)
