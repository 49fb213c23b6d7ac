package task

// Executor is one worker machine's task runtime. The monotasks executor
// (internal/core) and the pipelined Spark-style executor (internal/pipeexec)
// both implement it; the driver (internal/jobsched) is executor-agnostic —
// mirroring how MonoSpark changed only the worker-side pipelining code (§4).
type Executor interface {
	// MachineID reports which cluster machine this executor runs on.
	MachineID() int
	// MaxConcurrentTasks is how many multitasks the driver should keep
	// assigned to this worker at once.
	MaxConcurrentTasks() int
	// Launch begins executing t; done fires on the simulation engine when
	// the task completes.
	Launch(t *Task, done func(*TaskMetrics))
}
