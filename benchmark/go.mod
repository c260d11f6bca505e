// The benchmark is a module of its own so that it builds from its own
// build file and the program's `go build ./... && go test ./...` never
// compiles it. It reaches the program (module upcxx, the parent
// directory) only through sut/sut.go.
module upcxx/benchmark

go 1.23

require upcxx v0.0.0

replace upcxx => ../
