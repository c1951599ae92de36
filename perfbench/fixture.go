package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"

	congest "repro"
)

// fixtureRecipe names the training inputs of the fixture predictor: the
// default model users get (GBRT, marginal operations filtered, full size)
// on the paper's training designs under the default flow config.
const fixtureRecipe = "gbrt filter=true size=full train_seed=0 modules=training label_runs=default flow=default"

// fixture is the trained default predictor plus the feature rows of the
// training designs, which serve_http samples its request payloads from.
type fixture struct {
	key       string
	modelPath string
	rowsPath  string
}

// loadFixture returns the cached fixture for this build, training it in a
// child process when absent. The key hashes the recipe and both binaries,
// so a build never scores another build's artifact. A cached artifact is
// re-validated through LoadPredictorFile before use.
func loadFixture(root, congserve string) (*fixture, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	io.WriteString(h, fixtureRecipe)
	for _, p := range []string{self, congserve} {
		if err := hashFile(h, p); err != nil {
			return nil, err
		}
	}
	key := hex.EncodeToString(h.Sum(nil))[:20]
	base := filepath.Join(root, "perfbench", ".fixture")
	dir := filepath.Join(base, key)
	fx := &fixture{key: key, modelPath: filepath.Join(dir, "model.json"), rowsPath: filepath.Join(dir, "rows.bin")}
	if _, err := os.Stat(fx.rowsPath); err != nil {
		if err := os.MkdirAll(base, 0o755); err != nil {
			return nil, err
		}
		tmp, err := os.MkdirTemp(base, "tmp-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		cmd := exec.Command(self, "-prepare-fixture", tmp)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("training the fixture: %w", err)
		}
		os.RemoveAll(dir)
		if err := os.Rename(tmp, dir); err != nil {
			return nil, err
		}
	}
	if _, err := congest.LoadPredictorFile(fx.modelPath); err != nil {
		return nil, fmt.Errorf("cached fixture %s does not validate: %w", key, err)
	}
	return fx, nil
}

func hashFile(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, err = io.Copy(w, f)
	return err
}

// prepareFixture builds the training dataset, trains the default predictor
// and writes model.json and rows.bin into dir. It runs in a child process
// so training never inflates the measuring process's memory or heap.
func prepareFixture(dir string) error {
	ds, _, err := congest.BuildTrainingDataset(congest.DefaultFlowConfig())
	if err != nil {
		return err
	}
	p, err := congest.TrainPredictor(ds, congest.TrainOptions{Kind: congest.GBRT, Filter: true, Size: congest.SizeFull})
	if err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "model.json"))
	if err != nil {
		return err
	}
	if err := congest.SavePredictor(p, f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	X, _ := ds.Matrix(congest.Vertical)
	return writeRows(filepath.Join(dir, "rows.bin"), X)
}

// writeRows stores feature rows as uint32 rows, uint32 cols, then the
// values as little-endian float64.
func writeRows(path string, X [][]float64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	var b [8]byte
	binary.LittleEndian.PutUint32(b[:], uint32(len(X)))
	binary.LittleEndian.PutUint32(b[4:], uint32(len(X[0])))
	w.Write(b[:])
	for _, row := range X {
		for _, v := range row {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			w.Write(b[:])
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readRows loads the rows writeRows stored.
func readRows(path string) ([][]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if len(b) < 8 {
		return nil, fmt.Errorf("%s: truncated header", path)
	}
	n, cols := int(binary.LittleEndian.Uint32(b)), int(binary.LittleEndian.Uint32(b[4:]))
	if len(b) != 8+8*n*cols {
		return nil, fmt.Errorf("%s: %d bytes for %d×%d rows", path, len(b), n, cols)
	}
	flat := make([]float64, n*cols)
	for i := range flat {
		flat[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8+8*i:]))
	}
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = flat[i*cols : (i+1)*cols : (i+1)*cols]
	}
	return rows, nil
}

// fingerprint identifies the host and build a result came from; results
// compare only with results that carry the same fingerprint.
type fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Commit is a digest of the checkout's Go sources and module files;
	// the benchmark runs from a plain checkout with no version control.
	Commit string `json:"commit"`
}

func hostFingerprint(root string) (fingerprint, error) {
	fp := fingerprint{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && rel != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(rel, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum" {
			fmt.Fprintf(h, "%s\x00", rel)
			if err := hashFile(h, path); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fp, fmt.Errorf("fingerprint: %w", err)
	}
	fp.Commit = hex.EncodeToString(h.Sum(nil))[:16]
	return fp, nil
}
