// Known emit fault: `b - -c` is emitted as `b[i]--c[i]`, which C reads as
// a decrement and rejects.
double a[4096];
double b[4096];
double c[4096];

#pragma hstream in(b, c) out(a) device(*) scheduling(4096)
{
    a = b - -c;
}
