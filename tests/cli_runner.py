"""Run `hhdeform.cli.main` in-process and capture what it writes.

`CliRunner().invoke(main, args)` returns a `Result` with the exit code,
stdout, stderr, `output` (stdout and stderr interleaved as written) and
the exception that ended the run: a SystemExit with a nonzero code, or
any other exception, which counts as exit code 1.  Not a test module;
the test files import it.
"""

import contextlib
import io


class Result:
    def __init__(self, exit_code, stdout, stderr, output, exception):
        self.exit_code = exit_code
        self.stdout = stdout
        self.stderr = stderr
        self.output = output
        self.exception = exception


class _Stream(io.StringIO):
    """A stream that also writes everything into `mixed`."""

    def __init__(self, mixed):
        super().__init__()
        self.mixed = mixed

    def write(self, text):
        self.mixed.write(text)
        return super().write(text)


class CliRunner:
    def invoke(self, main, args):
        mixed = io.StringIO()
        out, err = _Stream(mixed), _Stream(mixed)
        exception = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main(args=args, prog_name="hhdeform")
                exit_code = 0
            except SystemExit as exc:
                exit_code = exc.code or 0
                if exit_code != 0:
                    exception = exc
            except Exception as exc:
                exception = exc
                exit_code = 1
        return Result(exit_code, out.getvalue(), err.getvalue(), mixed.getvalue(), exception)
