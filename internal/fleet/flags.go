package fleet

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"
)

// Flags is the command-line face of the fleet, shared by every command
// that serves or works a campaign: the four flags, the rules between
// them, coordinator start-up and worker construction. A command keeps
// which campaign -serve means and which executors a worker registers.
type Flags struct {
	Serve      string        // -serve: coordinator listen address
	Worker     string        // -worker: coordinator base URL to pull leases from
	LeaseTasks int           // -lease-tasks (coordinator)
	LeaseTTL   time.Duration // -lease-ttl (coordinator)
}

// RegisterFlags declares the flags on fs. serves completes "run the
// fleet coordinator on this listen address, serving ...": what this
// command's campaign is and where its merged output goes.
func RegisterFlags(fs *flag.FlagSet, serves string) *Flags {
	f := new(Flags)
	fs.StringVar(&f.Serve, "serve", "", "run the fleet coordinator on this listen address, serving "+serves)
	fs.StringVar(&f.Worker, "worker", "", "run a fleet worker pulling task leases from the coordinator at this base URL (e.g. http://host:9444)")
	fs.IntVar(&f.LeaseTasks, "lease-tasks", 0, "-serve: tasks per lease batch (0 = default)")
	fs.DurationVar(&f.LeaseTTL, "lease-ttl", 0, "-serve: lease expiry deadline, renewed on each completed task (0 = default)")
	return f
}

// Enabled reports whether the command line asks for a fleet mode.
func (f Flags) Enabled() bool { return f.Serve != "" || f.Worker != "" }

// Validate rejects the combinations that are wrong in any command,
// before anything listens, connects or simulates.
func (f Flags) Validate() error {
	switch {
	case f.Serve == "" && f.Worker == "":
		return fmt.Errorf("fleet mode needs -serve or -worker")
	case f.Serve != "" && f.Worker != "":
		return fmt.Errorf("-serve and -worker are mutually exclusive")
	case f.LeaseTasks < 0:
		return fmt.Errorf("-lease-tasks must be positive")
	case f.LeaseTTL < 0:
		return fmt.Errorf("-lease-ttl must be positive")
	case f.Worker != "" && (f.LeaseTasks != 0 || f.LeaseTTL != 0):
		return fmt.Errorf("-lease-tasks and -lease-ttl are coordinator flags (use with -serve)")
	}
	return nil
}

// ServeCampaign runs camp's coordinator on -serve to completion and
// returns its results for the command's save step. Progress goes to
// stdout, where CI greps the stats line's expiry and steal counters.
func (f Flags) ServeCampaign(ctx context.Context, camp Campaign) ([]Result, error) {
	coord, err := NewCoordinator(camp, Options{LeaseTasks: f.LeaseTasks, LeaseTTL: f.LeaseTTL, Logf: stdoutLogf})
	if err != nil {
		return nil, err
	}
	return coord.Serve(ctx, f.Serve)
}

// NewWorker builds the worker -worker asks for, named host-pid and
// logging to stdout; the caller sets what else it needs and calls Run.
func (f Flags) NewWorker(executors map[string]Executor) *Worker {
	host, _ := os.Hostname()
	return &Worker{
		Base:      f.Worker,
		Name:      fmt.Sprintf("%s-%d", host, os.Getpid()),
		Executors: executors,
		Logf:      stdoutLogf,
	}
}

// stdoutLogf adapts the Logf convention (printf format, no newline) to
// stdout lines.
func stdoutLogf(format string, args ...any) {
	fmt.Printf(format+"\n", args...)
}
