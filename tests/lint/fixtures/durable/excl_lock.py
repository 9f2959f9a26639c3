"""Positive fixture: an O_EXCL lock file outside repro.durable.

A holder killed between the create and the write leaves an empty lock
nobody can judge, and nothing ever expires it: only repro.durable.Lease
may create lock files."""

import os


class SessionLock:
    def __init__(self, path):
        self.path = path

    def acquire(self):
        fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        os.write(fd, str(os.getpid()).encode("ascii"))
        os.close(fd)
