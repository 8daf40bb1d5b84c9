package experiment

// CrossTrafficStepBudget exposes the crosstraffic budget widening to the
// external test package, which imports cliutil for the default budget.
var CrossTrafficStepBudget = crossTrafficStepBudget
