// Known emit fault: the parentheses of a right operand with the precedence
// of its parent are dropped, so C computes (b+c)-d instead of b+(c-d).
double a[4096];
double b[4096];
double c[4096];
double d[4096];

#pragma hstream in(b, c, d) out(a) device(*) scheduling(4096)
{
    a = b + (c - d);
}
