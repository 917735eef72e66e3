package crowd

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/geo"
)

var la = geo.Point{Lat: 34.0522, Lon: -118.2437}

func region(sizeM float64) geo.Rect {
	return geo.NewRect(geo.Destination(la, 315, sizeM), geo.Destination(la, 135, sizeM))
}

func TestNewCoverageModelValidation(t *testing.T) {
	if _, err := NewCoverageModel(geo.Rect{}, 4, 4, 1, 1); err == nil {
		t.Fatal("degenerate region accepted")
	}
	if _, err := NewCoverageModel(region(1000), 0, 4, 1, 1); err == nil {
		t.Fatal("zero rows accepted")
	}
	m, err := NewCoverageModel(region(1000), 4, 4, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.DirBins != 1 || m.MinCount != 1 {
		t.Fatalf("defaults not applied: %+v", m)
	}
}

func TestCellRectTilesRegion(t *testing.T) {
	m, _ := NewCoverageModel(region(1000), 3, 3, 1, 1)
	// Union of all cells == region (within float slop).
	first := m.CellRect(0, 0)
	last := m.CellRect(2, 2)
	if first.MinLat != m.Region.MinLat || first.MinLon != m.Region.MinLon {
		t.Fatal("first cell corner wrong")
	}
	const eps = 1e-9
	if last.MaxLat < m.Region.MaxLat-eps || last.MaxLon < m.Region.MaxLon-eps {
		t.Fatal("last cell corner wrong")
	}
	// Adjacent cells do not overlap interiors.
	a := m.CellRect(0, 0)
	b := m.CellRect(0, 1)
	if a.MaxLon > b.MinLon+eps {
		t.Fatal("cells overlap")
	}
}

func TestMeasureEmptyAndFull(t *testing.T) {
	m, _ := NewCoverageModel(region(500), 4, 4, 1, 1)
	cm := m.Measure(nil)
	if cm.Ratio() != 0 {
		t.Fatalf("empty coverage = %v", cm.Ratio())
	}
	if len(cm.WeakCells()) != 16 {
		t.Fatalf("weak cells = %d", len(cm.WeakCells()))
	}
	// One omnidirectional FOV with a huge radius covers everything.
	cm = m.Measure([]geo.FOV{{Camera: la, Direction: 0, Angle: 360, Radius: 3000}})
	if cm.Ratio() != 1 {
		t.Fatalf("full coverage = %v", cm.Ratio())
	}
	if len(cm.WeakCells()) != 0 {
		t.Fatal("weak cells remain under full coverage")
	}
}

func TestMeasurePartial(t *testing.T) {
	m, _ := NewCoverageModel(region(1000), 4, 4, 1, 1)
	// A narrow FOV in one corner covers few cells.
	corner := geo.Destination(la, 315, 800)
	cm := m.Measure([]geo.FOV{{Camera: corner, Direction: 180, Angle: 40, Radius: 100}})
	r := cm.Ratio()
	if r <= 0 || r > 0.5 {
		t.Fatalf("partial coverage = %v", r)
	}
}

func TestDirectionalCoverage(t *testing.T) {
	m, _ := NewCoverageModel(region(200), 2, 2, 4, 1)
	// All FOVs face north: directional ratio stays low even when the
	// plain ratio saturates.
	var fovs []geo.FOV
	for i := 0; i < 8; i++ {
		fovs = append(fovs, geo.FOV{
			Camera:    geo.Destination(la, float64(i*45), 100),
			Direction: 0, Angle: 90, Radius: 400,
		})
	}
	cm := m.Measure(fovs)
	if cm.Ratio() != 1 {
		t.Fatalf("plain ratio = %v", cm.Ratio())
	}
	if dr := cm.DirectionalRatio(); dr > 0.5 {
		t.Fatalf("directional ratio = %v for single-direction captures", dr)
	}
}

func TestMinCountThreshold(t *testing.T) {
	m, _ := NewCoverageModel(region(200), 1, 1, 1, 3)
	f := geo.FOV{Camera: la, Direction: 0, Angle: 360, Radius: 1000}
	if m.Measure([]geo.FOV{f, f}).Ratio() != 0 {
		t.Fatal("2 captures should not satisfy MinCount=3")
	}
	if m.Measure([]geo.FOV{f, f, f}).Ratio() != 1 {
		t.Fatal("3 captures should satisfy MinCount=3")
	}
}

func TestRedundancy(t *testing.T) {
	f := geo.FOV{Camera: la, Direction: 0, Angle: 60, Radius: 300}
	same := []geo.FOV{f, f, f}
	r, err := Redundancy(same, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r < 0.9 {
		t.Fatalf("identical FOV redundancy = %v", r)
	}
	spread := []geo.FOV{
		f,
		{Camera: geo.Destination(la, 90, 5000), Direction: 0, Angle: 60, Radius: 300},
	}
	r2, _ := Redundancy(spread, 0)
	if r2 != 0 {
		t.Fatalf("disjoint redundancy = %v", r2)
	}
	if _, err := Redundancy([]geo.FOV{f}, 0); !errors.Is(err, ErrNoFOVs) {
		t.Fatal("single FOV accepted")
	}
}

func makeWorkers(n int, spreadM float64, capacity int, maxTravel float64, seed int64) []Worker {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Worker, n)
	for i := range out {
		out[i] = Worker{
			ID:         string(rune('A' + i)),
			Location:   geo.Destination(la, rng.Float64()*360, rng.Float64()*spreadM),
			MaxTravelM: maxTravel,
			Capacity:   capacity,
		}
	}
	return out
}

func makeTasks(n int, spreadM float64, seed int64) []Task {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Task, n)
	for i := range out {
		out[i] = Task{ID: uint64(i + 1), Location: geo.Destination(la, rng.Float64()*360, rng.Float64()*spreadM)}
	}
	return out
}

func TestAssignStrategies(t *testing.T) {
	tasks := makeTasks(20, 1500, 1)
	workers := makeWorkers(10, 1500, 3, 2000, 2)
	for _, s := range []Strategy{StrategyGreedy, StrategyEntropy, StrategyRandom} {
		asn, err := Assign(tasks, workers, s, 3)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if asn.Assigned() == 0 {
			t.Fatalf("%s assigned nothing", s)
		}
		// Capacity respected.
		load := map[string]int{}
		for _, w := range asn.TaskWorker {
			load[w]++
		}
		for w, n := range load {
			if n > 3 {
				t.Fatalf("%s overloaded worker %s with %d tasks", s, w, n)
			}
		}
		// Travel bound respected.
		byID := map[uint64]Task{}
		for _, task := range tasks {
			byID[task.ID] = task
		}
		wByID := map[string]Worker{}
		for _, w := range workers {
			wByID[w.ID] = w
		}
		for tid, wid := range asn.TaskWorker {
			d := geo.Haversine(wByID[wid].Location, byID[tid].Location)
			if d > wByID[wid].MaxTravelM+1 {
				t.Fatalf("%s exceeded travel bound: %.0f m", s, d)
			}
		}
	}
	if _, err := Assign(tasks, workers, "bogus", 1); !errors.Is(err, ErrUnknownStrategy) {
		t.Fatal("bogus strategy accepted")
	}
}

func TestGreedyAssignsAllWhenCapacityAllows(t *testing.T) {
	tasks := makeTasks(6, 500, 4)
	workers := makeWorkers(6, 500, 2, 5000, 5)
	asn, _ := Assign(tasks, workers, StrategyGreedy, 1)
	if asn.Assigned() != 6 {
		t.Fatalf("greedy assigned %d/6", asn.Assigned())
	}
}

func TestEntropyBeatsGreedyOnConstrainedInstance(t *testing.T) {
	// One distant task reachable only by worker A; one central task
	// reachable by everyone. Greedy may spend A on the central task; the
	// entropy heuristic assigns the constrained task first.
	far := geo.Destination(la, 0, 1800)
	tasks := []Task{
		{ID: 1, Location: geo.Destination(la, 0, 30)}, // central
		{ID: 2, Location: far},                        // constrained
	}
	workers := []Worker{
		{ID: "A", Location: geo.Destination(far, 180, 150), MaxTravelM: 200, Capacity: 1},
		{ID: "B", Location: geo.Destination(la, 90, 3000), MaxTravelM: 5000, Capacity: 1},
	}
	asn, err := Assign(tasks, workers, StrategyEntropy, 1)
	if err != nil {
		t.Fatal(err)
	}
	if asn.TaskWorker[2] != "A" {
		t.Fatalf("entropy did not reserve constrained worker: %+v", asn.TaskWorker)
	}
	if asn.Assigned() != 2 {
		t.Fatalf("entropy assigned %d/2", asn.Assigned())
	}
}

func TestCampaignReachesTargetCoverage(t *testing.T) {
	m, err := NewCoverageModel(region(800), 5, 5, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	workers := makeWorkers(8, 1000, 5, 3000, 3)
	c := Campaign{ID: 1, Name: "fill-gaps", Region: m.Region, TargetCoverage: 0.9, MaxRounds: 8, Strategy: StrategyGreedy}
	r, err := NewRunner(c, m, workers, DefaultCaptureFunc(2, 150, 4), nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) < 2 {
		t.Fatalf("campaign ran %d rounds", len(reports))
	}
	final := reports[len(reports)-1]
	if final.Coverage < 0.9 {
		t.Fatalf("final coverage = %.3f, want >= 0.9 (reports %+v)", final.Coverage, reports)
	}
	// Coverage is monotonically nondecreasing.
	for i := 1; i < len(reports); i++ {
		if reports[i].Coverage < reports[i-1].Coverage {
			t.Fatal("coverage decreased across rounds")
		}
	}
	if len(r.FOVs()) == 0 {
		t.Fatal("no captures accumulated")
	}
}

func TestCampaignStopsWhenStuck(t *testing.T) {
	m, _ := NewCoverageModel(region(5000), 4, 4, 1, 1)
	// Workers that can barely move: no weak cell is reachable.
	workers := []Worker{{ID: "A", Location: geo.Destination(la, 0, 20000), MaxTravelM: 10, Capacity: 1}}
	c := Campaign{ID: 1, Region: m.Region, TargetCoverage: 1, MaxRounds: 50}
	r, err := NewRunner(c, m, workers, DefaultCaptureFunc(1, 100, 1), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) > 3 {
		t.Fatalf("stuck campaign ran %d rounds", len(reports))
	}
}

func TestNewRunnerValidation(t *testing.T) {
	m, _ := NewCoverageModel(region(500), 2, 2, 1, 1)
	w := makeWorkers(1, 100, 1, 1000, 1)
	cap := DefaultCaptureFunc(1, 100, 1)
	if _, err := NewRunner(Campaign{TargetCoverage: 0.5}, nil, w, cap, nil, 1); err == nil {
		t.Fatal("nil model accepted")
	}
	if _, err := NewRunner(Campaign{TargetCoverage: 0.5}, m, nil, cap, nil, 1); !errors.Is(err, ErrNoWorkers) {
		t.Fatal("no workers accepted")
	}
	if _, err := NewRunner(Campaign{TargetCoverage: 0.5}, m, w, nil, nil, 1); err == nil {
		t.Fatal("nil capture accepted")
	}
	if _, err := NewRunner(Campaign{TargetCoverage: 0}, m, w, cap, nil, 1); err == nil {
		t.Fatal("zero target accepted")
	}
	if _, err := NewRunner(Campaign{TargetCoverage: 1.5}, m, w, cap, nil, 1); err == nil {
		t.Fatal("target > 1 accepted")
	}
}

func TestExistingFOVsSeedCoverage(t *testing.T) {
	m, _ := NewCoverageModel(region(300), 2, 2, 1, 1)
	full := geo.FOV{Camera: la, Direction: 0, Angle: 360, Radius: 2000}
	w := makeWorkers(1, 100, 1, 1000, 1)
	c := Campaign{ID: 1, Region: m.Region, TargetCoverage: 0.9, MaxRounds: 5}
	r, err := NewRunner(c, m, w, DefaultCaptureFunc(1, 100, 1), []geo.FOV{full}, 1)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Already covered: only the baseline report, no rounds executed.
	if len(reports) != 1 || reports[0].Coverage != 1 {
		t.Fatalf("reports = %+v", reports)
	}
}

func TestDefaultCaptureFuncFacesTask(t *testing.T) {
	f := DefaultCaptureFunc(3, 120, 9)
	task := Task{ID: 1, Location: geo.Destination(la, 45, 400)}
	caps := f(task, "W")
	if len(caps) != 3 {
		t.Fatalf("captures = %d", len(caps))
	}
	for _, c := range caps {
		if c.WorkerID != "W" || c.TaskID != 1 {
			t.Fatalf("capture metadata wrong: %+v", c)
		}
		if err := c.FOV.Validate(); err != nil {
			t.Fatal(err)
		}
		if !c.FOV.Contains(task.Location) {
			t.Fatalf("capture does not view the task location: %+v", c.FOV)
		}
	}
}

// DirectionalRatio returns the fraction of (cell, direction) pairs that
// meet MinCount — the stricter coverage notion for applications needing
// all-around views.
func (c *CoverageMap) DirectionalRatio() float64 {
	covered, total := 0, 0
	for _, bins := range c.Counts {
		for _, n := range bins {
			total++
			if n >= c.Model.MinCount {
				covered++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(covered) / float64(total)
}
