// The benchmark is a module of its own so that the repository's tier-1
// build and tests (`go build ./... && go test ./...` at the root) neither
// compile nor run it. The module path keeps the `flatstore/` prefix, which
// is what lets it import flatstore/internal/...
module flatstore/benchmark

go 1.22

require flatstore v0.0.0

replace flatstore => ../
