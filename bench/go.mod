// The benchmark is a module of its own so that its build file lives beside
// it; the replace directive points at the repository it measures, and the
// repro/ prefix keeps repro/internal/... importable.
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
