// Package pipe holds the types shared between the timing pipelines: the
// per-machine slab of in-flight micro-ops that the scalar units, the
// vector control logic and the lane cores all address by generation-
// checked handles, and a bimodal branch predictor.
package pipe
