// Package proc is the external-process substrate: it runs real programs
// with an arbitrary shell descriptor table, translating exit statuses into
// the strings es uses, and measures child resource usage for the time
// builtin.
package proc

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// Files maps shell descriptors to open files for a child process.
type Files map[int]*os.File

// Run executes path with argv (argv[0] included), working directory dir,
// environment env, and the given descriptor table.  It returns the es
// status string: "0" for success, the decimal exit code for failures, or
// sig<name> when the child died from a signal.
func Run(path string, argv []string, dir string, env []string, files Files) (string, error) {
	cmd := &exec.Cmd{Path: path, Args: argv, Dir: dir, Env: env}
	cmd.Stdin = files[0]
	cmd.Stdout = files[1]
	cmd.Stderr = files[2]

	// Descriptors above 2 are passed via ExtraFiles, which assigns them
	// contiguously from 3; fill gaps with the null device.
	var extra []int
	for fd := range files {
		if fd > 2 {
			extra = append(extra, fd)
		}
	}
	var nulls []*os.File
	if len(extra) > 0 {
		sort.Ints(extra)
		max := extra[len(extra)-1]
		cmd.ExtraFiles = make([]*os.File, max-2)
		for fd := 3; fd <= max; fd++ {
			f := files[fd]
			if f == nil {
				null, err := os.OpenFile(os.DevNull, os.O_RDWR, 0)
				if err != nil {
					return "", err
				}
				nulls = append(nulls, null)
				f = null
			}
			cmd.ExtraFiles[fd-3] = f
		}
	}
	err := cmd.Run()
	for _, n := range nulls {
		n.Close()
	}
	return Status(err)
}

// Status converts an exec error into an es status string.
func Status(err error) (string, error) {
	if err == nil {
		return "0", nil
	}
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		ws, ok := exit.Sys().(syscall.WaitStatus)
		if ok && ws.Signaled() {
			return SignalName(ws.Signal()), nil
		}
		return fmt.Sprintf("%d", exit.ExitCode()), nil
	}
	return "", err
}

// signalNames are the Linux signals by number, named as C es names the
// status of a child they killed.
var signalNames = [...]string{
	syscall.SIGHUP:    "sighup",
	syscall.SIGINT:    "sigint",
	syscall.SIGQUIT:   "sigquit",
	syscall.SIGILL:    "sigill",
	syscall.SIGTRAP:   "sigtrap",
	syscall.SIGABRT:   "sigabrt",
	syscall.SIGBUS:    "sigbus",
	syscall.SIGFPE:    "sigfpe",
	syscall.SIGKILL:   "sigkill",
	syscall.SIGUSR1:   "sigusr1",
	syscall.SIGSEGV:   "sigsegv",
	syscall.SIGUSR2:   "sigusr2",
	syscall.SIGPIPE:   "sigpipe",
	syscall.SIGALRM:   "sigalrm",
	syscall.SIGTERM:   "sigterm",
	syscall.SIGSTKFLT: "sigstkflt",
	syscall.SIGCHLD:   "sigchld",
	syscall.SIGCONT:   "sigcont",
	syscall.SIGSTOP:   "sigstop",
	syscall.SIGTSTP:   "sigtstp",
	syscall.SIGTTIN:   "sigttin",
	syscall.SIGTTOU:   "sigttou",
	syscall.SIGURG:    "sigurg",
	syscall.SIGXCPU:   "sigxcpu",
	syscall.SIGXFSZ:   "sigxfsz",
	syscall.SIGVTALRM: "sigvtalrm",
	syscall.SIGPROF:   "sigprof",
	syscall.SIGWINCH:  "sigwinch",
	syscall.SIGIO:     "sigio",
	syscall.SIGPWR:    "sigpwr",
	syscall.SIGSYS:    "sigsys",
}

// SignalName is the es status word of a child killed by sig: sigint,
// sigpipe, sigterm and so on, or sig<number> for a signal with no name.
func SignalName(sig syscall.Signal) string {
	if sig >= 0 && int(sig) < len(signalNames) && signalNames[sig] != "" {
		return signalNames[sig]
	}
	return "sig" + strconv.Itoa(int(sig))
}

// Usage is a resource-usage snapshot for the time builtin.
type Usage struct {
	Real time.Time
	User time.Duration
	Sys  time.Duration
}

// Snapshot captures current self+children resource usage.
func Snapshot() Usage {
	var self, kids syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	return Usage{
		Real: time.Now(),
		User: tv(self.Utime) + tv(kids.Utime),
		Sys:  tv(self.Stime) + tv(kids.Stime),
	}
}

func tv(t syscall.Timeval) time.Duration {
	return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
}

// Since reports elapsed real/user/sys time since the snapshot.
func (u Usage) Since() (real, user, sys time.Duration) {
	now := Snapshot()
	return now.Real.Sub(u.Real), now.User - u.User, now.Sys - u.Sys
}

// Lookup searches the directory list for an executable named name,
// returning the full path of the first match.
func Lookup(name string, dirs []string) (string, bool) {
	for _, dir := range dirs {
		if dir == "" {
			dir = "."
		}
		cand := dir + "/" + name
		if Executable(cand) {
			return cand, true
		}
	}
	return "", false
}

// Executable reports whether path names an executable non-directory; the
// pathsearch cache uses it to re-verify memoized lookups.
func Executable(path string) bool {
	fi, err := os.Stat(path)
	if err != nil || fi.IsDir() {
		return false
	}
	return fi.Mode()&0o111 != 0
}
