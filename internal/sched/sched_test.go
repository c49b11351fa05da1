package sched_test

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/stm"
)

// The simulator runs internal/core's managers. timid is the
// always-wait manager: queue-on-block with its timeout off.
var (
	greedy     = core.MustFactory("greedy")
	aggressive = core.MustFactory("aggressive")
	karma      = core.MustFactory("karma")
	timid      = func() stm.Manager { return &core.QueueOnBlock{} }
)

// mustInstance unwraps an instance built from a test's constant,
// valid parameters.
func mustInstance(ins *sched.Instance, err error) *sched.Instance {
	if err != nil {
		panic(err)
	}
	return ins
}

func unit(id, length int, objects ...int) sched.Task {
	need := make(map[int]float64)
	for _, o := range objects {
		need[o] = 1
	}
	return sched.Task{ID: id, Length: length, Need: need}
}

func TestValidateRejectsBadSystems(t *testing.T) {
	cases := map[string]*sched.System{
		"bad id":         {Tasks: []sched.Task{{ID: 1, Length: 1}}, Resources: 0},
		"zero length":    {Tasks: []sched.Task{{ID: 0, Length: 0}}, Resources: 0},
		"resource range": {Tasks: []sched.Task{unit(0, 1, 3)}, Resources: 2},
		"need over 1":    {Tasks: []sched.Task{{ID: 0, Length: 1, Need: map[int]float64{0: 1.5}}}, Resources: 1},
		"negative need":  {Tasks: []sched.Task{{ID: 0, Length: 1, Need: map[int]float64{0: -0.1}}}, Resources: 1},
	}
	for name, sys := range cases {
		if err := sys.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid system", name)
		}
	}
}

func TestListScheduleIndependentTasksRunTogether(t *testing.T) {
	sys := &sched.System{
		Tasks:     []sched.Task{unit(0, 3, 0), unit(1, 3, 1), unit(2, 3, 2)},
		Resources: 3,
	}
	s, err := sys.ListSchedule([]int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan != 3 {
		t.Fatalf("makespan = %d, want 3 (all disjoint tasks in parallel)", s.Makespan)
	}
	if err := sys.Feasible(s); err != nil {
		t.Fatal(err)
	}
}

func TestListScheduleSerializesSharedResource(t *testing.T) {
	sys := &sched.System{
		Tasks:     []sched.Task{unit(0, 2, 0), unit(1, 3, 0), unit(2, 1, 0)},
		Resources: 1,
	}
	s, err := sys.ListSchedule([]int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan != 6 {
		t.Fatalf("makespan = %d, want 6 (total serialization)", s.Makespan)
	}
	if err := sys.Feasible(s); err != nil {
		t.Fatal(err)
	}
}

func TestListScheduleRespectsFractionalNeeds(t *testing.T) {
	// Three readers at 1/3 each share the resource; a writer at 1 must
	// wait for all of them.
	sys := &sched.System{
		Resources: 1,
		Tasks: []sched.Task{
			{ID: 0, Length: 2, Need: map[int]float64{0: 1.0 / 3}},
			{ID: 1, Length: 2, Need: map[int]float64{0: 1.0 / 3}},
			{ID: 2, Length: 2, Need: map[int]float64{0: 1.0 / 3}},
			{ID: 3, Length: 2, Need: map[int]float64{0: 1}},
		},
	}
	s, err := sys.ListSchedule([]int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if s.Start[0] != 0 || s.Start[1] != 0 || s.Start[2] != 0 {
		t.Fatalf("readers start at %v, want all 0", s.Start[:3])
	}
	if s.Start[3] != 2 {
		t.Fatalf("writer starts at %d, want 2", s.Start[3])
	}
}

func TestListScheduleRejectsBadOrder(t *testing.T) {
	sys := &sched.System{Tasks: []sched.Task{unit(0, 1), unit(1, 1)}, Resources: 0}
	for _, order := range [][]int{{0}, {0, 0}, {0, 2}} {
		if _, err := sys.ListSchedule(order); err == nil {
			t.Errorf("order %v accepted", order)
		}
	}
}

func TestOptimalMatchesObviousCases(t *testing.T) {
	// Serial chain on one resource: optimal = total work.
	serial := &sched.System{
		Tasks:     []sched.Task{unit(0, 2, 0), unit(1, 3, 0)},
		Resources: 1,
	}
	s, err := serial.Optimal()
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan != 5 {
		t.Fatalf("serial optimal = %d, want 5", s.Makespan)
	}
	// Disjoint tasks: optimal = longest task.
	disjoint := &sched.System{
		Tasks:     []sched.Task{unit(0, 2, 0), unit(1, 5, 1), unit(2, 3, 2)},
		Resources: 3,
	}
	s, err = disjoint.Optimal()
	if err != nil {
		t.Fatal(err)
	}
	if s.Makespan != 5 {
		t.Fatalf("disjoint optimal = %d, want 5", s.Makespan)
	}
}

// TestOptimalNeverWorseThanBestList checks Optimal against the best
// list schedule over every permutation of the tasks (n <= 5, so at
// most 120 lists).
func TestOptimalNeverWorseThanBestList(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	for trial := 0; trial < 30; trial++ {
		ins := sched.RandomInstance(rng, 4+int(rng.Int64N(2)), 3, 3, 2)
		sys := sched.TaskSystemOf(ins)
		best := -1
		for _, order := range permutations(len(sys.Tasks)) {
			list, err := sys.ListSchedule(order)
			if err != nil {
				t.Fatal(err)
			}
			if best < 0 || list.Makespan < best {
				best = list.Makespan
			}
		}
		opt, err := sys.Optimal()
		if err != nil {
			t.Fatal(err)
		}
		if opt.Makespan > best {
			t.Fatalf("trial %d: optimal %d worse than best list %d", trial, opt.Makespan, best)
		}
		if opt.Makespan < sys.LowerBound() {
			t.Fatalf("trial %d: optimal %d below lower bound %d", trial, opt.Makespan, sys.LowerBound())
		}
		if err := sys.Feasible(opt); err != nil {
			t.Fatalf("trial %d: optimal schedule infeasible: %v", trial, err)
		}
	}
}

// permutations returns every ordering of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for i := 0; i <= len(p); i++ {
			q := append(append(append([]int{}, p[:i]...), n-1), p[i:]...)
			out = append(out, q)
		}
	}
	return out
}

// TestEmptyInstance: a system with no transactions completes at
// makespan 0, both simulated and under the exact optimum.
func TestEmptyInstance(t *testing.T) {
	ins := &sched.Instance{}
	res, err := sched.Simulate(ins, greedy, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Makespan != 0 {
		t.Fatalf("empty instance: completed %v, makespan %d; want true, 0", res.Completed, res.Makespan)
	}
	if t0 := sched.CheckPendingCommit(res); t0 >= 0 {
		t.Fatalf("empty instance violates pending commit at tick %d", t0)
	}
	opt, err := sched.TaskSystemOf(ins).Optimal()
	if err != nil {
		t.Fatal(err)
	}
	if opt.Makespan != 0 {
		t.Fatalf("empty system: optimal makespan %d, want 0", opt.Makespan)
	}
}

// TestGareyGrahamListBound checks the classical (s+1)-competitiveness
// of arbitrary list schedules against the exact optimum on random
// instances.
func TestGareyGrahamListBound(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	for trial := 0; trial < 25; trial++ {
		s := 2 + int(rng.Int64N(2))
		ins := sched.RandomInstance(rng, 5, s, 3, 2)
		sys := sched.TaskSystemOf(ins)
		order := rng.Perm(len(sys.Tasks))
		list, err := sys.ListSchedule(order)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := sys.Optimal()
		if err != nil {
			t.Fatal(err)
		}
		if list.Makespan > (s+1)*opt.Makespan {
			t.Fatalf("trial %d: list %d > (s+1)*opt = %d*%d", trial, list.Makespan, s+1, opt.Makespan)
		}
	}
}

// --- The Section 4 adversarial instance ---

// TestInstancesRejectBadParameters: an adversary without an object or
// an instance whose time unit is under two ticks is an error, not a
// silently different instance, since a caller divides the makespan by
// the m it asked for.
func TestInstancesRejectBadParameters(t *testing.T) {
	for _, c := range []struct {
		name string
		err  error
		bad  bool
	}{
		{"Adversary(0, 2)", second(sched.Adversary(0, 2)), true},
		{"Adversary(-1, 2)", second(sched.Adversary(-1, 2)), true},
		{"Adversary(2, 1)", second(sched.Adversary(2, 1)), true},
		{"LivelockInstance(1)", second(sched.LivelockInstance(1)), true},
		{"CycleInstance(0)", second(sched.CycleInstance(0)), true},
		{"Adversary(1, 2)", second(sched.Adversary(1, 2)), false},
		{"LivelockInstance(2)", second(sched.LivelockInstance(2)), false},
		{"CycleInstance(3)", second(sched.CycleInstance(3)), false},
	} {
		if (c.err != nil) != c.bad {
			t.Errorf("%s: error %v, want an error: %t", c.name, c.err, c.bad)
		}
	}
}

func second(_ *sched.Instance, err error) error { return err }

func TestAdversaryGreedyMakespanIsSPlusOne(t *testing.T) {
	for _, s := range []int{1, 2, 3, 5, 8} {
		const m = 2
		ins := mustInstance(sched.Adversary(s, m))
		res, err := sched.Simulate(ins, greedy, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("s=%d: greedy did not complete", s)
		}
		want := (s + 1) * m
		if res.Makespan != want {
			t.Fatalf("s=%d: greedy makespan = %d ticks, want %d (s+1 time units)", s, res.Makespan, want)
		}
		if err := sched.VerifyPendingCommit(res); err != nil {
			t.Fatalf("s=%d: %v", s, err)
		}
	}
}

func TestAdversaryOptimalIsTwo(t *testing.T) {
	for _, s := range []int{2, 3, 5} {
		const m = 2
		sys := sched.TaskSystemOf(mustInstance(sched.Adversary(s, m)))
		list, err := sys.ListSchedule(sched.EvenOddOrder(s + 1))
		if err != nil {
			t.Fatal(err)
		}
		if list.Makespan != 2*m {
			t.Fatalf("s=%d: even-odd list makespan = %d ticks, want %d (2 units)", s, list.Makespan, 2*m)
		}
		opt, err := sys.Optimal()
		if err != nil {
			t.Fatal(err)
		}
		if opt.Makespan != 2*m {
			t.Fatalf("s=%d: optimal = %d ticks, want %d", s, opt.Makespan, 2*m)
		}
	}
}

func TestAdversaryRatioWithinTheorem9(t *testing.T) {
	for _, s := range []int{2, 4, 6} {
		ratio := float64(s+1) / 2
		if bound := float64(sched.Bound(s)); ratio > bound {
			t.Fatalf("s=%d: adversary ratio %.2f exceeds bound %.0f", s, ratio, bound)
		}
	}
}

// TestTheorem1BoundedAborts: under greedy, a transaction is aborted
// only by older transactions, so its abort count is bounded by the
// number of higher-priority transactions (n-1 here, tighter per
// instance).
func TestTheorem1BoundedAborts(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 19))
	for trial := 0; trial < 40; trial++ {
		n := 3 + int(rng.Int64N(4))
		ins := sched.RandomInstance(rng, n, 3, 3, 2)
		res, err := sched.Simulate(ins, greedy, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("trial %d: greedy did not complete", trial)
		}
		for i, aborts := range res.AbortCount {
			older := 0
			for j := range ins.Specs {
				if ins.Specs[j].Timestamp < ins.Specs[i].Timestamp {
					older++
				}
			}
			// Each abort of i is inflicted by a strictly older
			// transaction and each older transaction commits exactly
			// once; in the scripted model an older transaction can
			// abort i at most once per attempt of its own, and it has
			// at most older attempts... The safe instance-level bound
			// used by Theorem 1 is that the oldest transaction is
			// never aborted.
			if older == 0 && aborts != 0 {
				t.Fatalf("trial %d: oldest transaction aborted %d times", trial, aborts)
			}
		}
	}
}

func TestTimidDeadlocksOnCycle(t *testing.T) {
	ins := mustInstance(sched.CycleInstance(2))
	res, err := sched.Simulate(ins, timid, 200)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("always-wait manager completed a cyclic conflict; expected deadlock")
	}
}

func TestAggressiveLivelocksOnSameObject(t *testing.T) {
	ins := mustInstance(sched.LivelockInstance(2))
	res, err := sched.Simulate(ins, aggressive, 400)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("always-abort manager completed the same-object instance; expected livelock")
	}
	if tVio := sched.CheckPendingCommit(res); tVio < 0 {
		t.Fatal("livelocked run reported pending-commit as holding")
	}
}

func TestGreedyResolvesLivelockInstance(t *testing.T) {
	ins := mustInstance(sched.LivelockInstance(2))
	res, err := sched.Simulate(ins, greedy, 400)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("greedy failed the same-object instance")
	}
	if err := sched.VerifyPendingCommit(res); err != nil {
		t.Fatal(err)
	}
}

func TestGreedyResolvesCycle(t *testing.T) {
	ins := mustInstance(sched.CycleInstance(2))
	res, err := sched.Simulate(ins, greedy, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("greedy failed to resolve the cyclic conflict")
	}
	if err := sched.VerifyPendingCommit(res); err != nil {
		t.Fatal(err)
	}
}

func TestKarmaCompletesCycle(t *testing.T) {
	ins := mustInstance(sched.CycleInstance(2))
	res, err := sched.Simulate(ins, karma, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("karma failed on the cyclic conflict")
	}
}

func TestRandomizedUsuallyCompletes(t *testing.T) {
	ins := mustInstance(sched.CycleInstance(2))
	seed := uint64(42)
	coin := func() stm.Manager {
		seed++
		r := core.NewRandomized()
		r.Seed(seed)
		return r
	}
	res, err := sched.Simulate(ins, coin, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("randomized manager failed on the cyclic conflict within a generous budget")
	}
}

// TestEveryManagerTerminates runs every registry manager on the two
// instances that defeat the deterministic extremes: each run must end
// within its tick budget. Aggressive is the exception the paper cites,
// livelocking on the same-object instance.
func TestEveryManagerTerminates(t *testing.T) {
	for _, name := range core.Names() {
		for instance, ins := range map[string]*sched.Instance{
			"cycle":       mustInstance(sched.CycleInstance(2)),
			"same-object": mustInstance(sched.LivelockInstance(2)),
		} {
			res, err := sched.Simulate(ins, core.MustFactory(name), 1_000)
			if err != nil {
				t.Fatalf("%s on %s: %v", name, instance, err)
			}
			livelocks := name == "aggressive" && instance == "same-object"
			if res.Completed == livelocks {
				t.Errorf("%s on %s: completed = %v after %d ticks, want %v", name, instance, res.Completed, res.Makespan, !livelocks)
			}
		}
	}
}

// TestGreedyAlwaysCompletes is the liveness half of Theorem 1 in the
// simulator: greedy completes every random instance.
func TestGreedyAlwaysCompletes(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 29))
	for trial := 0; trial < 60; trial++ {
		ins := sched.RandomInstance(rng, 2+int(rng.Int64N(6)), 2+int(rng.Int64N(3)), 4, 3)
		res, err := sched.Simulate(ins, greedy, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("trial %d: greedy did not complete", trial)
		}
		if err := sched.VerifyPendingCommit(res); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestQuickTheorem9 is the property-test form of the competitive
// bound: on arbitrary random instances greedy's makespan is within
// s(s+1)+2 of the exact optimum.
func TestQuickTheorem9(t *testing.T) {
	property := func(seed uint64) bool {
		rng := rand.New(rand.NewPCG(seed, seed|1))
		n := 3 + int(rng.Int64N(4))
		s := 2 + int(rng.Int64N(2))
		ins := sched.RandomInstance(rng, n, s, 3, 2)
		report, err := sched.MeasureRatio(ins)
		if err != nil {
			return false
		}
		if !report.PendingCommitOK {
			return false
		}
		return report.Ratio <= float64(report.Bound)
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRatioSweepHoldsBound(t *testing.T) {
	reports, worst, err := sched.RatioSweep(7, []int{3, 5}, []int{2, 3}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2*2*5 {
		t.Fatalf("got %d reports, want 20", len(reports))
	}
	for _, r := range reports {
		if r.Ratio > float64(r.Bound) {
			t.Fatalf("report %v exceeds Theorem 9 bound", r)
		}
	}
	if worst <= 0 {
		t.Fatalf("worst ratio = %f, want positive", worst)
	}
}

func TestSimulateValidation(t *testing.T) {
	bad := &sched.Instance{
		Objects: 1,
		Specs:   []sched.TxSpec{{ID: 0, Length: 1, Accesses: []sched.Access{{Offset: 5, Object: 0}}}},
	}
	if _, err := sched.Simulate(bad, greedy, 0); err == nil {
		t.Fatal("Simulate accepted an access offset beyond the length")
	}
}
